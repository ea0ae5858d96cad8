//! Reader-level and codec-level cases: what the one-pass reader accepts
//! and refuses, and envelopes that must survive the codec whole.

use promises_wire::xml::{escape_into, Item, Reader, XmlError, MAX_ATTRIBUTES, MAX_DOCUMENT_BYTES};
use promises_wire::{
    decode, encode, ActionRequest, ActionResponse, CodecError, EnvEntry, EnvRef, Envelope,
    EnvironmentHeader, PromiseRequestHeader, PromiseResponseHeader, PromiseResult,
    ResolutionHeader, ResolutionOp, ResolutionResponse, ResolveRef, TraceHeader,
};

/// The document element's name, the values of its attributes `keys`, and
/// its children's names and texts, in order.
type Outline = (String, Vec<Option<String>>, Vec<(String, String)>);

/// Reads `doc` whole with the reader.
fn outline(doc: &str, keys: &[&str]) -> Result<Outline, XmlError> {
    let mut r = Reader::new(doc)?;
    let root = r.root()?;
    let attrs = keys.iter().map(|k| root.attr(k).map(Into::into)).collect();
    let mut children = Vec::new();
    loop {
        match r.next(&root)? {
            Item::Start(child) => children.push((child.name.to_owned(), r.text(&child)?)),
            Item::Text(_) => {}
            Item::End => break,
        }
    }
    r.finish()?;
    Ok((root.name.to_owned(), attrs, children))
}

fn some(values: &[&str]) -> Vec<Option<String>> {
    values.iter().map(|v| Some((*v).to_owned())).collect()
}

#[test]
fn escaping_roundtrips() {
    let mut attr = String::new();
    escape_into("x < y & z > 'q'", &mut attr);
    let mut text = String::new();
    escape_into("5 < 6 && \"quoted\"", &mut text);
    let doc = format!("<p a='{attr}'><t>{text}</t></p>");
    let (_, attrs, children) = outline(&doc, &["a"]).unwrap();
    assert_eq!(attrs, some(&["x < y & z > 'q'"]));
    assert_eq!(children, [("t".into(), "5 < 6 && \"quoted\"".into())]);
}

#[test]
fn self_closing_and_empty() {
    for doc in ["<a/>", "<a></a>", "<a b='1'/>"] {
        let (name, _, children) = outline(doc, &[]).unwrap();
        assert_eq!((name.as_str(), children.len()), ("a", 0), "{doc}");
    }
    assert_eq!(
        outline("<a b='1'/>", &["b", "c"]).unwrap().1,
        [Some("1".into()), None]
    );
}

#[test]
fn double_quotes_and_the_first_duplicate_attribute() {
    let doc = r#"<a b="it's" c = 'x"y' b='second'/>"#;
    let (_, attrs, _) = outline(doc, &["b", "c"]).unwrap();
    assert_eq!(attrs, some(&["it's", "x\"y"]));
    let mut r = Reader::new(doc).unwrap();
    let [b, c, d] = r.root().unwrap().attrs(["b", "c", "d"]);
    assert_eq!(
        (b.as_deref(), c.as_deref(), d),
        (Some("it's"), Some("x\"y"), None)
    );
}

#[test]
fn text_is_concatenated_around_children_then_trimmed() {
    let (_, _, children) = outline("<a><t> one <x>skipped</x>&amp; two </t></a>", &[]).unwrap();
    assert_eq!(children, [("t".into(), "one & two".into())]);
}

#[test]
fn malformed_documents_are_refused() {
    for doc in [
        "<a>",
        "<a></b>",
        "<a b=1/>",
        "<a b='1/>",
        "<a/><b/>",
        "plain",
        "",
        "<a>&bogus;</a>",
        "<a b='&bogus;'/>",
        "<a><!-- c --></a>",
        "< a/>",
        "<a></a >x",
    ] {
        assert!(outline(doc, &[]).is_err(), "{doc:?} was read");
    }
}

#[test]
fn whitespace_tolerant() {
    let (name, attrs, children) = outline("  <a  b = '1' >\n  <b/>\n  </a >  ", &["b"]).unwrap();
    assert_eq!((name.as_str(), attrs), ("a", some(&["1"])));
    assert_eq!(children, [("b".into(), String::new())]);
}

/// Whitespace outside ASCII (a no-break space, a line separator) is
/// skipped whole, not one byte of it, which split the character.
#[test]
fn multibyte_whitespace_and_names() {
    for ws in ["\u{a0}", "\u{2028}"] {
        let (name, _, children) = outline(&format!("{ws}<a>{ws}<b/>{ws}</a>{ws}"), &[]).unwrap();
        assert_eq!((name.as_str(), children.len()), ("a", 1), "{ws:?}");
    }
    let (name, _, _) = outline("<ünïcødé/>", &[]).unwrap();
    assert_eq!(name, "ünïcødé");
}

#[test]
fn oversized_documents_and_attribute_lists_are_refused() {
    let long = format!("<a>{}</a>", " ".repeat(MAX_DOCUMENT_BYTES));
    let err = outline(&long, &[]).unwrap_err();
    assert!(err.message.contains("longer than"), "{err}");
    let attrs = |n: usize| {
        let list: String = (0..n).map(|i| format!(" a{i}='{i}'")).collect();
        format!("<a{list}/>")
    };
    let last = format!("a{}", MAX_ATTRIBUTES - 1);
    let (_, read, _) = outline(&attrs(MAX_ATTRIBUTES), &[&last]).unwrap();
    assert_eq!(read, some(&[&(MAX_ATTRIBUTES - 1).to_string()]));
    let err = outline(&attrs(MAX_ATTRIBUTES + 1), &[]).unwrap_err();
    assert!(err.message.contains("attributes"), "{err}");
}

fn full_envelope() -> Envelope {
    Envelope {
        promise_requests: vec![PromiseRequestHeader {
            request_id: "r1".into(),
            client: "order-process".into(),
            predicates: vec![
                "qty('pink widgets') >= 5".into(),
                "prop('rooms', 2): floor == 5 && view == true".into(),
            ],
            duration_ms: 60_000,
            exchange: vec![3, 4],
            negotiate: false,
            prepare: false,
        }],
        promise_responses: vec![
            PromiseResponseHeader {
                promise_id: Some(7),
                result: PromiseResult::Accepted,
                expires_at: 60_500,
                correlation: "r0".into(),
                granted_predicates: vec![],
            },
            PromiseResponseHeader {
                promise_id: None,
                result: PromiseResult::Rejected("insufficient".into()),
                expires_at: 0,
                correlation: "r-old".into(),
                granted_predicates: vec![],
            },
        ],
        releases: vec![9],
        resolutions: vec![
            ResolutionHeader {
                reference: ResolveRef::Id(12),
                op: ResolutionOp::Commit,
            },
            ResolutionHeader {
                reference: ResolveRef::Request {
                    client: "coord".into(),
                    request: "r9@s2".into(),
                },
                op: ResolutionOp::Abort,
            },
        ],
        resolution_responses: vec![ResolutionResponse {
            reference: ResolveRef::Id(12),
            op: ResolutionOp::Commit,
            applied: true,
            error: None,
        }],
        environment: Some(EnvironmentHeader {
            entries: vec![
                EnvEntry {
                    reference: EnvRef::Id(7),
                    release_after: true,
                },
                EnvEntry {
                    reference: EnvRef::Correlation("r1".into()),
                    release_after: false,
                },
            ],
        }),
        action: Some(
            ActionRequest::new("merchant", "purchase")
                .param("pool", "pink widgets")
                .param("qty", 5),
        ),
        action_response: Some(ActionResponse::success().field("order", "o-1")),
        trace: Some(TraceHeader { trace: 5, span: 6 }),
    }
}

#[test]
fn full_roundtrip() {
    let env = full_envelope();
    let xml = encode(&env);
    let back = decode(&xml).unwrap();
    assert_eq!(back, env);
}

#[test]
fn empty_roundtrip() {
    let env = Envelope::new();
    assert_eq!(decode(&encode(&env)).unwrap(), env);
}

#[test]
fn predicates_with_xml_specials_survive() {
    let mut env = Envelope::new();
    env.promise_requests.push(PromiseRequestHeader {
        request_id: "r".into(),
        client: "c".into(),
        predicates: vec!["qty('a&b') >= 5".into(), "prop('x'): a < 3 && b > 1".into()],
        duration_ms: 1,
        exchange: vec![],
        negotiate: false,
        prepare: false,
    });
    let back = decode(&encode(&env)).unwrap();
    assert_eq!(back, env);
}

/// What the tree parser accepted, the reader accepts: double quotes,
/// whitespace in tags and between elements, entities, unknown elements
/// and attributes. The first header, body, environment, action and
/// copy of an attribute count.
#[test]
fn tolerant_reading() {
    let doc = r#" <envelope>
        <x-note a="1"><x-deep>text</x-deep></x-note>
        <header >
          <promise-request request-id = "r&amp;1" client='c' duration="5" x-new='y'
                           request-id='ignored'>
            <predicate> qty(&apos;w&apos;) &gt;= 5 <x-hint/>&amp;&amp; true </predicate>
          </promise-request>
          <environment><under release='true' promise='7'/></environment>
          <environment><under/></environment>
        </header>
        <header><release promise='1'/></header>
        <body><action service='s' operation='o'/><action service='t'/></body>
        <body><action-response ok='true'/></body>
      </envelope>
    "#;
    let env = decode(doc).unwrap();
    let pr = &env.promise_requests[0];
    assert_eq!((pr.request_id.as_str(), pr.duration_ms), ("r&1", 5));
    assert_eq!(pr.predicates, ["qty('w') >= 5 && true"]);
    assert_eq!(env.environment.unwrap().entries.len(), 1);
    assert!(env.releases.is_empty());
    assert_eq!(env.action.unwrap().service, "s");
    assert!(env.action_response.is_none());
}

/// Unknown elements are skipped, but a malformed one fails the whole
/// document, and malformed XML anywhere is reported as such even after
/// an envelope-shape error.
#[test]
fn malformed_xml_wins_over_shape() {
    for doc in [
        "<envelope><x-a><b></x-a></envelope>",
        "<envelope><x-a b=1/><header/></envelope>",
        "<envelope><header><release/></header><x-a>&nbsp;</x-a></envelope>",
        "<nope><unclosed></nope>",
        "<envelope><header/><body/></envelope><trailing/>",
    ] {
        assert!(matches!(decode(doc), Err(CodecError::Xml(_))), "{doc}");
    }
}

#[test]
fn shape_errors() {
    assert!(decode("<nope/>").is_err());
    assert!(decode("<envelope><header><promise-request/></header></envelope>").is_err());
    assert!(decode(
        "<envelope><header><promise-response result='weird' expires='1' correlation='c'/></header></envelope>"
    )
    .is_err());
    assert!(decode(
        "<envelope><header><environment><under release='true'/></environment></header></envelope>"
    )
    .is_err());
    assert!(decode("not xml").is_err());
}
