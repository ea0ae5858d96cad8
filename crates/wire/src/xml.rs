//! A minimal XML subset — enough to carry the paper's SOAP-style promise
//! headers without an external dependency — read and written in one pass.
//!
//! Supported: `<name attr='v'>children|text</name>`, self-closing tags,
//! single- or double-quoted attributes, the five standard entities. Not
//! supported (not needed): namespaces, comments, processing instructions,
//! CDATA, doctypes.
//!
//! [`Reader`] is a cursor over the input. It hands out start tags (a name
//! and its attributes), text and end tags as slices of the input, builds
//! no tree, and copies only a value that holds an entity. [`escape_into`]
//! is the writing half.

use std::borrow::Cow;
use std::fmt;

/// How deeply elements may nest, the document element counting as 1. The
/// codec's envelopes nest 4 deep (`envelope` > `header` >
/// `promise-request` > `predicate`); a document nested deeper than this is
/// refused, not recursed into until the stack overflows.
pub const MAX_DEPTH: usize = 64;

/// The longest document the reader accepts, in bytes. The largest
/// envelope the cluster, the simulations, the experiments and the
/// benchmark send is under 1 KiB; a hostile or runaway sender is refused
/// before a byte is parsed.
pub const MAX_DOCUMENT_BYTES: usize = 64 * 1024;

/// The most attributes one element may carry. The codec writes at most 5.
pub const MAX_ATTRIBUTES: usize = 16;

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

/// The five entities, by the character each one stands for.
const ENTITIES: [(u8, &str); 5] = [
    (b'&', "&amp;"),
    (b'<', "&lt;"),
    (b'>', "&gt;"),
    (b'\'', "&apos;"),
    (b'"', "&quot;"),
];

fn entity_for(b: u8) -> Option<&'static str> {
    match b {
        b'&' | b'<' | b'>' | b'\'' | b'"' => ENTITIES.iter().find(|(c, _)| *c == b).map(|e| e.1),
        _ => None,
    }
}

/// The character the entity at the start of `s` stands for, and the
/// entity's length.
fn entity_at(s: &str) -> Option<(char, usize)> {
    ENTITIES
        .iter()
        .find(|(_, e)| s.starts_with(e))
        .map(|&(c, e)| (char::from(c), e.len()))
}

/// Appends `s` with `& < > ' "` escaped; a string that holds none of them
/// is copied whole.
pub fn escape_into(s: &str, out: &mut String) {
    let mut from = 0;
    for (at, b) in s.bytes().enumerate() {
        if let Some(entity) = entity_for(b) {
            out.push_str(&s[from..at]);
            out.push_str(entity);
            from = at + 1;
        }
    }
    out.push_str(&s[from..]);
}

/// The number of bytes [`escape_into`] appends for `s`.
pub(crate) fn escaped_len(s: &str) -> usize {
    s.bytes().map(|b| entity_for(b).map_or(1, str::len)).sum()
}

/// Appends `raw` with its entities replaced; the reader has checked that
/// every `&` starts one of the five.
fn unescape_into(raw: &str, out: &mut String) {
    let mut rest = raw;
    while let Some(at) = rest.find('&') {
        out.push_str(&rest[..at]);
        let (c, len) = entity_at(&rest[at..]).unwrap_or(('&', 1));
        out.push(c);
        rest = &rest[at + len..];
    }
    out.push_str(rest);
}

fn unescape(raw: &str) -> Cow<'_, str> {
    if raw.contains('&') {
        let mut out = String::with_capacity(raw.len());
        unescape_into(raw, &mut out);
        Cow::Owned(out)
    } else {
        Cow::Borrowed(raw)
    }
}

/// A start tag as the reader found it.
#[derive(Debug, Clone, Copy)]
pub struct Tag<'a> {
    /// Tag name.
    pub name: &'a str,
    /// Nesting depth, the document element counting as 1.
    depth: usize,
    /// `<name/>`: no content and no end tag follow.
    empty: bool,
    /// The attributes as written between the name and the tag's end,
    /// already checked by the reader.
    attrs: &'a str,
}

impl<'a> Tag<'a> {
    /// The first attribute called `name`, unescaped: borrowed from the
    /// input unless it holds an entity.
    pub fn attr(&self, name: &str) -> Option<Cow<'a, str>> {
        let [value] = self.attrs([name]);
        value
    }

    /// The attributes called `names`, unescaped, found in one pass over
    /// the tag; where an attribute is repeated, its first copy counts.
    pub fn attrs<const N: usize>(&self, names: [&str; N]) -> [Option<Cow<'a, str>>; N] {
        let mut values = [const { None }; N];
        for (name, raw) in self.attributes() {
            if let Some(at) = names.iter().position(|n| *n == name) {
                values[at].get_or_insert_with(|| unescape(raw));
            }
        }
        values
    }

    /// Names and raw (still escaped) values, in document order.
    fn attributes(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        let mut rest = self.attrs;
        std::iter::from_fn(move || {
            let bytes = rest.as_bytes();
            let eq = bytes.iter().position(|&b| b == b'=')?;
            let open = eq + bytes[eq..].iter().position(|&b| b == b'\'' || b == b'"')?;
            let len = bytes[open + 1..].iter().position(|&b| b == bytes[open])?;
            let (name, value) = (rest[..eq].trim(), &rest[open + 1..open + 1 + len]);
            rest = &rest[open + len + 2..];
            Some((name, value))
        })
    }
}

/// What comes next inside an open element.
#[derive(Debug, Clone, Copy)]
pub enum Item<'a> {
    /// A child element's start tag.
    Start(Tag<'a>),
    /// A run of text, raw (still escaped, entities checked).
    Text(&'a str),
    /// The open element's end tag (or the element was self-closing).
    End,
}

/// A cursor over one document. Every check a tree parser makes is made as
/// the cursor passes: names, quotes, entities, matching end tags, depth,
/// and nothing but whitespace after the document element.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// The depth of the innermost element whose end tag is still to come.
    open: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `src`, refused when it is longer than
    /// [`MAX_DOCUMENT_BYTES`].
    pub fn new(src: &'a str) -> Result<Self, XmlError> {
        let reader = Reader {
            src,
            pos: 0,
            open: 0,
        };
        if src.len() > MAX_DOCUMENT_BYTES {
            return Err(reader.err(format!(
                "document of {} bytes is longer than {MAX_DOCUMENT_BYTES}",
                src.len()
            )));
        }
        Ok(reader)
    }

    /// The document element's start tag (leading whitespace allowed).
    pub fn root(&mut self) -> Result<Tag<'a>, XmlError> {
        self.skip_ws();
        self.start(1)
    }

    /// The next item inside `parent`, whose start tag was the last thing
    /// read or whose children were all read to their end. After
    /// [`Item::End`] the parent is closed.
    pub fn next(&mut self, parent: &Tag<'a>) -> Result<Item<'a>, XmlError> {
        if parent.empty {
            return Ok(Item::End);
        }
        let rest = self.rest();
        if rest.starts_with("</") {
            self.pos += 2;
            let close = self.name()?;
            if close != parent.name {
                return Err(self.err(format!(
                    "mismatched close tag: expected </{}>, got </{close}>",
                    parent.name
                )));
            }
            self.skip_ws();
            if !self.eat(b'>') {
                return Err(self.err("expected '>' after close tag"));
            }
            self.open = parent.depth - 1;
            return Ok(Item::End);
        }
        if rest.starts_with('<') {
            return self.start(parent.depth + 1).map(Item::Start);
        }
        if rest.is_empty() {
            return Err(self.err(format!("unexpected end of input in <{}>", parent.name)));
        }
        self.text_until(b'<').map(Item::Text)
    }

    /// Reads the rest of `tag`, through its end tag, checking only that
    /// it is well-formed; nothing when `tag` is already closed.
    pub fn skip(&mut self, tag: &Tag<'a>) -> Result<(), XmlError> {
        if self.open < tag.depth {
            return Ok(());
        }
        loop {
            match self.next(tag)? {
                Item::Start(child) => self.skip(&child)?,
                Item::Text(_) => {}
                Item::End => return Ok(()),
            }
        }
    }

    /// Reads the rest of `tag`, through its end tag: its text runs
    /// concatenated, unescaped and trimmed. Child elements are skipped.
    pub fn text(&mut self, tag: &Tag<'a>) -> Result<String, XmlError> {
        let mut text = Cow::Borrowed("");
        loop {
            match self.next(tag)? {
                Item::Start(child) => self.skip(&child)?,
                Item::Text(raw) if text.is_empty() => text = unescape(raw),
                Item::Text(raw) => unescape_into(raw, text.to_mut()),
                Item::End => break,
            }
        }
        Ok(match text {
            Cow::Owned(s) if s.trim().len() == s.len() => s,
            text => text.trim().to_owned(),
        })
    }

    /// Ends the document: only whitespace may follow the document element.
    pub fn finish(mut self) -> Result<(), XmlError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.err("trailing content after document element"));
        }
        Ok(())
    }

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

    fn eat(&mut self, b: u8) -> bool {
        if self.src.as_bytes().get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        let len = rest
            .find(|c: char| !(c.is_alphanumeric() || matches!(c, '-' | '_' | ':' | '.')))
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.err("expected name"));
        }
        self.pos += len;
        Ok(&rest[..len])
    }

    /// Reads the start tag at `pos`, nested `depth` deep.
    fn start(&mut self, depth: usize) -> Result<Tag<'a>, XmlError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH}")));
        }
        if !self.eat(b'<') {
            return Err(self.err("expected '<'"));
        }
        let name = self.name()?;
        let attrs = self.pos;
        let mut count = 0;
        loop {
            let end = self.pos;
            self.skip_ws();
            let empty = self.rest().starts_with("/>");
            if empty || self.eat(b'>') {
                if empty {
                    self.pos += 2;
                } else {
                    self.open = depth;
                }
                return Ok(Tag {
                    name,
                    depth,
                    empty,
                    attrs: &self.src[attrs..end],
                });
            }
            self.name()?;
            self.skip_ws();
            if !self.eat(b'=') {
                return Err(self.err("expected '=' in attribute"));
            }
            self.skip_ws();
            let quote = match self.src.as_bytes().get(self.pos) {
                Some(&q @ (b'\'' | b'"')) => q,
                _ => return Err(self.err("expected quoted attribute value")),
            };
            self.pos += 1;
            self.text_until(quote)?;
            self.pos += 1; // closing quote
            count += 1;
            if count > MAX_ATTRIBUTES {
                return Err(self.err(format!(
                    "<{name}> has more than {MAX_ATTRIBUTES} attributes"
                )));
            }
        }
    }

    /// The raw text from `pos` up to, not including, `stop`, with every
    /// entity in it checked. Only text (`stop` = `<`) may run to the end
    /// of the input.
    fn text_until(&mut self, stop: u8) -> Result<&'a str, XmlError> {
        let start = self.pos;
        let bytes = self.src.as_bytes();
        loop {
            let Some(at) = bytes[self.pos..]
                .iter()
                .position(|&b| b == stop || b == b'&')
            else {
                self.pos = bytes.len();
                if stop == b'<' {
                    return Ok(&self.src[start..]);
                }
                return Err(self.err("unexpected end of input in text"));
            };
            self.pos += at;
            if bytes[self.pos] == stop {
                return Ok(&self.src[start..self.pos]);
            }
            match entity_at(self.rest()) {
                Some((_, len)) => self.pos += len,
                None => return Err(self.err("unknown entity")),
            }
        }
    }
}
