//! Envelope ↔ XML codec.
//!
//! The on-wire shape mirrors §6's description: promise elements live under
//! a `<header>`, the action under a `<body>`:
//!
//! ```xml
//! <envelope>
//!   <header>
//!     <promise-request request-id='r1' client='c' duration='60000'>
//!       <predicate>qty('widgets') &gt;= 5</predicate>
//!       <exchange promise='3'/>
//!     </promise-request>
//!     <promise-response promise='7' result='accepted' expires='60500'
//!                       correlation='r0'/>
//!     <release promise='4'/>
//!     <environment>
//!       <under promise='7' release='true'/>
//!       <under correlation='r1' release='false'/>
//!     </environment>
//!   </header>
//!   <body>
//!     <action service='merchant' operation='purchase'>
//!       <param name='qty'>5</param>
//!     </action>
//!   </body>
//! </envelope>
//! ```

use std::borrow::Cow;

use crate::envelope::{
    ActionRequest, ActionResponse, EnvEntry, EnvRef, Envelope, EnvironmentHeader,
    PromiseRequestHeader, PromiseResponseHeader, PromiseResult, ResolutionHeader, ResolutionOp,
    ResolutionResponse, ResolveRef, TraceHeader,
};
use crate::xml::{escape_into, escaped_len, Item, Reader, Tag, XmlError};

/// Codec error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Malformed XML.
    Xml(XmlError),
    /// Well-formed XML with an invalid envelope shape.
    Shape(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Xml(e) => write!(f, "{e}"),
            CodecError::Shape(m) => write!(f, "invalid envelope: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<XmlError> for CodecError {
    fn from(e: XmlError) -> Self {
        CodecError::Xml(e)
    }
}

/// Where the encoder writes: a `usize` that only counts the bytes, then a
/// `String` allocated at exactly that size.
trait Sink {
    fn raw(&mut self, s: &str);
    fn escaped(&mut self, s: &str);
    fn len(&self) -> usize;
    fn truncate(&mut self, len: usize);

    /// Writes `n` in decimal, digit by digit: no `String`, no formatter.
    fn num(&mut self, mut n: u64) {
        let mut digits = [b'0'; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] += (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.raw(std::str::from_utf8(&digits[at..]).unwrap_or_default());
    }
}

impl Sink for usize {
    fn raw(&mut self, s: &str) {
        *self += s.len();
    }

    fn escaped(&mut self, s: &str) {
        *self += escaped_len(s);
    }

    fn num(&mut self, n: u64) {
        *self += n.checked_ilog10().map_or(1, |d| d as usize + 1);
    }

    fn len(&self) -> usize {
        *self
    }

    fn truncate(&mut self, len: usize) {
        *self = len;
    }
}

impl Sink for String {
    fn raw(&mut self, s: &str) {
        self.push_str(s);
    }

    fn escaped(&mut self, s: &str) {
        escape_into(s, self);
    }

    fn len(&self) -> usize {
        String::len(self)
    }

    fn truncate(&mut self, len: usize) {
        String::truncate(self, len);
    }
}

/// An attribute's value; an `Absent` attribute is not written.
enum Value<'v> {
    Text(&'v str),
    Num(u64),
    Absent,
}

use Value::{Absent, Num, Text};

fn boolean(b: bool) -> Value<'static> {
    Text(if b { "true" } else { "false" })
}

fn text(v: Option<&String>) -> Value<'_> {
    v.map_or(Absent, |v| Text(v))
}

/// Writes `<name attrs>`, leaving out the absent attributes.
fn start_tag<S: Sink>(out: &mut S, name: &str, attrs: &[(&str, Value)]) {
    out.raw("<");
    out.raw(name);
    for (key, value) in attrs {
        if matches!(value, Absent) {
            continue;
        }
        out.raw(" ");
        out.raw(key);
        out.raw("='");
        match value {
            Text(t) => out.escaped(t),
            Num(n) => out.num(*n),
            Absent => {}
        }
        out.raw("'");
    }
    out.raw(">");
}

/// Writes `<name attrs>content</name>`, or `<name attrs/>` when `content`
/// writes nothing: no children and no text.
fn element<S: Sink>(
    out: &mut S,
    name: &str,
    attrs: &[(&str, Value)],
    content: impl FnOnce(&mut S),
) {
    start_tag(out, name, attrs);
    let start = out.len();
    content(out);
    if out.len() == start {
        out.truncate(start - 1);
        out.raw("/>");
    } else {
        out.raw("</");
        out.raw(name);
        out.raw(">");
    }
}

fn reference(r: &ResolveRef) -> [(&str, Value<'_>); 2] {
    match r {
        ResolveRef::Id(id) => [("promise", Num(*id)), ("", Absent)],
        ResolveRef::Request { client, request } => {
            [("client", Text(client)), ("request", Text(request))]
        }
    }
}

fn pairs<S: Sink>(out: &mut S, name: &str, pairs: &[(String, String)]) {
    for (k, v) in pairs {
        element(out, name, &[("name", Text(k))], |out| out.escaped(v));
    }
}

fn write_envelope<S: Sink>(env: &Envelope, out: &mut S) {
    let (trace, span) = env
        .trace
        .map_or((Absent, Absent), |t| (Num(t.trace), Num(t.span)));
    element(
        out,
        "envelope",
        &[("trace", trace), ("span", span)],
        |out| {
            element(out, "header", &[], |out| write_header(env, out));
            element(out, "body", &[], |out| {
                if let Some(a) = &env.action {
                    let attrs = [
                        ("service", Text(&a.service)),
                        ("operation", Text(&a.operation)),
                    ];
                    element(out, "action", &attrs, |out| pairs(out, "param", &a.params));
                }
                if let Some(r) = &env.action_response {
                    let attrs = [("ok", boolean(r.ok)), ("error", text(r.error.as_ref()))];
                    element(out, "action-response", &attrs, |out| {
                        pairs(out, "field", &r.fields)
                    });
                }
            });
        },
    );
}

fn write_header<S: Sink>(env: &Envelope, out: &mut S) {
    let flag = |on: bool| if on { Text("true") } else { Absent };
    for pr in &env.promise_requests {
        let attrs = [
            ("request-id", Text(&pr.request_id)),
            ("client", Text(&pr.client)),
            ("duration", Num(pr.duration_ms)),
            ("negotiate", flag(pr.negotiate)),
            ("prepare", flag(pr.prepare)),
        ];
        element(out, "promise-request", &attrs, |out| {
            for p in &pr.predicates {
                element(out, "predicate", &[], |out| out.escaped(p));
            }
            for x in &pr.exchange {
                element(out, "exchange", &[("promise", Num(*x))], |_| {});
            }
        });
    }
    for resp in &env.promise_responses {
        let (result, why) = match &resp.result {
            PromiseResult::Accepted => ("accepted", ("", Absent)),
            PromiseResult::AcceptedWithCondition(c) => {
                ("accepted-with-condition", ("condition", Text(c)))
            }
            PromiseResult::Rejected(r) => ("rejected", ("reason", Text(r))),
        };
        let attrs = [
            ("expires", Num(resp.expires_at)),
            ("correlation", Text(&resp.correlation)),
            ("promise", resp.promise_id.map_or(Absent, Num)),
            ("result", Text(result)),
            why,
        ];
        element(out, "promise-response", &attrs, |out| {
            for g in &resp.granted_predicates {
                element(out, "granted-predicate", &[], |out| out.escaped(g));
            }
        });
    }
    for id in &env.releases {
        element(out, "release", &[("promise", Num(*id))], |_| {});
    }
    for r in &env.resolutions {
        let [a, b] = reference(&r.reference);
        element(out, "resolve", &[a, b, ("op", Text(r.op.as_str()))], |_| {});
    }
    for r in &env.resolution_responses {
        let [a, b] = reference(&r.reference);
        let attrs = [
            a,
            b,
            ("op", Text(r.op.as_str())),
            ("applied", boolean(r.applied)),
            ("error", text(r.error.as_ref())),
        ];
        element(out, "resolution", &attrs, |_| {});
    }
    if let Some(e) = &env.environment {
        element(out, "environment", &[], |out| {
            for entry in &e.entries {
                let reference = match &entry.reference {
                    EnvRef::Id(id) => ("promise", Num(*id)),
                    EnvRef::Correlation(c) => ("correlation", Text(c)),
                };
                let attrs = [("release", boolean(entry.release_after)), reference];
                element(out, "under", &attrs, |_| {});
            }
        });
    }
}

/// Serialises an envelope to its XML wire form, in one allocation: a
/// counting pass sizes the string, and the writing pass fills it.
pub fn encode(env: &Envelope) -> String {
    let mut len = 0;
    write_envelope(env, &mut len);
    let mut out = String::with_capacity(len);
    write_envelope(env, &mut out);
    debug_assert_eq!(out.len(), len, "the counting pass sized the string");
    out
}

/// Parses an envelope from its XML wire form in one pass over the input:
/// no element tree, names and values borrowed from `xml`, a copy made only
/// for the envelope's own strings (and for a value that holds an entity).
///
/// Elements and attributes the envelope does not know are skipped, but
/// must be well-formed. The first `<header>`, `<body>`, `<environment>`,
/// `<action>` and `<action-response>` count, and so does the first copy of
/// an attribute. Malformed XML anywhere is a [`CodecError::Xml`], even
/// after a [`CodecError::Shape`] error earlier in the document.
pub fn decode(xml: &str) -> Result<Envelope, CodecError> {
    read_envelope(xml).map_err(|e| match e {
        CodecError::Shape(_) => well_formed(xml).err().map_or(e, CodecError::Xml),
        xml => xml,
    })
}

/// Reads the whole document, checking only that it is well-formed.
fn well_formed(xml: &str) -> Result<(), XmlError> {
    let mut r = Reader::new(xml)?;
    let root = r.root()?;
    r.skip(&root)?;
    r.finish()
}

fn shape(message: String) -> CodecError {
    CodecError::Shape(message)
}

/// An attribute's unescaped value, if the element has it.
type Attr<'a> = Option<Cow<'a, str>>;

/// `value`, the attribute `name` of `el`, which must be there.
fn need<'a>(el: &Tag, name: &str, value: Attr<'a>) -> Result<Cow<'a, str>, CodecError> {
    value.ok_or_else(|| shape(format!("<{}> missing attribute {name:?}", el.name)))
}

/// `value`, the attribute `name` of `el`, which must be a `u64`.
fn number(el: &Tag, name: &str, value: Attr) -> Result<u64, CodecError> {
    need(el, name, value)?
        .parse()
        .map_err(|_| shape(format!("<{}> attribute {name:?} not a u64", el.name)))
}

fn promise_id(value: &str) -> Result<u64, CodecError> {
    value.parse().map_err(|_| shape("bad promise id".into()))
}

/// Reads `parent`'s children to its end tag, handing each to `each`;
/// whatever of a child `each` leaves unread is skipped.
fn children<'a>(
    r: &mut Reader<'a>,
    parent: &Tag<'a>,
    mut each: impl FnMut(&mut Reader<'a>, &Tag<'a>) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    loop {
        match r.next(parent)? {
            Item::Start(child) => {
                each(r, &child)?;
                r.skip(&child)?;
            }
            Item::Text(_) => {}
            Item::End => return Ok(()),
        }
    }
}

fn read_envelope(xml: &str) -> Result<Envelope, CodecError> {
    let mut r = Reader::new(xml)?;
    let root = r.root()?;
    if root.name != "envelope" {
        let name = root.name;
        return Err(shape(format!(
            "document element is <{name}>, expected <envelope>"
        )));
    }
    let mut env = Envelope::new();
    // Trace context is optional (absent from uninstrumented senders); a
    // malformed pair is a shape error, not silently dropped.
    let [trace, span] = root.attrs(["trace", "span"]);
    if trace.is_some() || span.is_some() {
        env.trace = Some(TraceHeader {
            trace: number(&root, "trace", trace)?,
            span: number(&root, "span", span)?,
        });
    }
    let (mut header, mut body) = (false, false);
    children(&mut r, &root, |r, el| match el.name {
        "header" if !header => {
            header = true;
            read_header(r, el, &mut env)
        }
        "body" if !body => {
            body = true;
            read_body(r, el, &mut env)
        }
        _ => Ok(()),
    })?;
    r.finish()?;
    Ok(env)
}

fn read_header<'a>(r: &mut Reader<'a>, el: &Tag<'a>, env: &mut Envelope) -> Result<(), CodecError> {
    children(r, el, |r, el| {
        match el.name {
            "promise-request" => env.promise_requests.push(read_request(r, el)?),
            "promise-response" => env.promise_responses.push(read_response(r, el)?),
            "release" => env
                .releases
                .push(number(el, "promise", el.attr("promise"))?),
            "resolve" => {
                let [promise, client, request, op] =
                    el.attrs(["promise", "client", "request", "op"]);
                env.resolutions.push(ResolutionHeader {
                    reference: resolve_ref(el, promise, client, request)?,
                    op: resolution_op(el, op)?,
                });
            }
            "resolution" => {
                let [promise, client, request, op, applied, error] =
                    el.attrs(["promise", "client", "request", "op", "applied", "error"]);
                env.resolution_responses.push(ResolutionResponse {
                    reference: resolve_ref(el, promise, client, request)?,
                    op: resolution_op(el, op)?,
                    applied: need(el, "applied", applied)? == "true",
                    error: error.map(Cow::into_owned),
                });
            }
            "environment" if env.environment.is_none() => {
                let mut entries = Vec::new();
                children(r, el, |_, under| {
                    if under.name == "under" {
                        entries.push(env_entry(under)?);
                    }
                    Ok(())
                })?;
                env.environment = Some(EnvironmentHeader { entries });
            }
            _ => {}
        }
        Ok(())
    })
}

fn read_request<'a>(r: &mut Reader<'a>, el: &Tag<'a>) -> Result<PromiseRequestHeader, CodecError> {
    let [request_id, client, duration, negotiate, prepare] =
        el.attrs(["request-id", "client", "duration", "negotiate", "prepare"]);
    let mut pr = PromiseRequestHeader {
        request_id: need(el, "request-id", request_id)?.into_owned(),
        client: need(el, "client", client)?.into_owned(),
        duration_ms: number(el, "duration", duration)?,
        negotiate: negotiate.is_some_and(|v| v == "true"),
        prepare: prepare.is_some_and(|v| v == "true"),
        ..PromiseRequestHeader::default()
    };
    children(r, el, |r, el| {
        match el.name {
            "predicate" => pr.predicates.push(r.text(el)?),
            "exchange" => pr.exchange.push(number(el, "promise", el.attr("promise"))?),
            _ => {}
        }
        Ok(())
    })?;
    Ok(pr)
}

fn read_response<'a>(
    r: &mut Reader<'a>,
    el: &Tag<'a>,
) -> Result<PromiseResponseHeader, CodecError> {
    let [result, condition, reason, promise, expires, correlation] = el.attrs([
        "result",
        "condition",
        "reason",
        "promise",
        "expires",
        "correlation",
    ]);
    let owned = |v: Option<Cow<str>>| v.map_or_else(String::new, Cow::into_owned);
    let result = match &*need(el, "result", result)? {
        "accepted" => PromiseResult::Accepted,
        "accepted-with-condition" => PromiseResult::AcceptedWithCondition(owned(condition)),
        "rejected" => PromiseResult::Rejected(owned(reason)),
        other => return Err(shape(format!("unknown result {other:?}"))),
    };
    let mut resp = PromiseResponseHeader {
        promise_id: promise.map(|v| promise_id(&v)).transpose()?,
        result,
        expires_at: number(el, "expires", expires)?,
        correlation: need(el, "correlation", correlation)?.into_owned(),
        granted_predicates: Vec::new(),
    };
    children(r, el, |r, el| {
        if el.name == "granted-predicate" {
            resp.granted_predicates.push(r.text(el)?);
        }
        Ok(())
    })?;
    Ok(resp)
}

fn resolve_ref(
    el: &Tag,
    promise: Attr,
    client: Attr,
    request: Attr,
) -> Result<ResolveRef, CodecError> {
    match (promise, client, request) {
        (Some(id), ..) => Ok(ResolveRef::Id(promise_id(&id)?)),
        (None, Some(c), Some(r)) => Ok(ResolveRef::Request {
            client: c.into_owned(),
            request: r.into_owned(),
        }),
        _ => Err(shape(format!(
            "<{}> needs promise or client+request",
            el.name
        ))),
    }
}

fn resolution_op(el: &Tag, op: Attr) -> Result<ResolutionOp, CodecError> {
    match &*need(el, "op", op)? {
        "commit" => Ok(ResolutionOp::Commit),
        "abort" => Ok(ResolutionOp::Abort),
        other => Err(shape(format!("unknown resolution op {other:?}"))),
    }
}

fn env_entry(under: &Tag) -> Result<EnvEntry, CodecError> {
    let [release, promise, correlation] = under.attrs(["release", "promise", "correlation"]);
    let release_after = need(under, "release", release)? == "true";
    let reference = match (promise, correlation) {
        (Some(id), _) => EnvRef::Id(promise_id(&id)?),
        (None, Some(c)) => EnvRef::Correlation(c.into_owned()),
        (None, None) => return Err(shape("<under> needs promise or correlation".into())),
    };
    Ok(EnvEntry {
        reference,
        release_after,
    })
}

/// `(name, text)` of every `<child name='..'>text</child>` of `el`.
fn read_pairs<'a>(
    r: &mut Reader<'a>,
    el: &Tag<'a>,
    child: &str,
) -> Result<Vec<(String, String)>, CodecError> {
    let mut pairs = Vec::new();
    children(r, el, |r, el| {
        if el.name == child {
            let name = need(el, "name", el.attr("name"))?.into_owned();
            pairs.push((name, r.text(el)?));
        }
        Ok(())
    })?;
    Ok(pairs)
}

fn read_body<'a>(r: &mut Reader<'a>, el: &Tag<'a>, env: &mut Envelope) -> Result<(), CodecError> {
    children(r, el, |r, el| {
        match el.name {
            "action" if env.action.is_none() => {
                let [service, operation] = el.attrs(["service", "operation"]);
                env.action = Some(ActionRequest {
                    service: need(el, "service", service)?.into_owned(),
                    operation: need(el, "operation", operation)?.into_owned(),
                    params: read_pairs(r, el, "param")?,
                });
            }
            "action-response" if env.action_response.is_none() => {
                let [ok, error] = el.attrs(["ok", "error"]);
                env.action_response = Some(ActionResponse {
                    ok: need(el, "ok", ok)? == "true",
                    error: error.map(Cow::into_owned),
                    fields: read_pairs(r, el, "field")?,
                });
            }
            _ => {}
        }
        Ok(())
    })
}
