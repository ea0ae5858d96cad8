//! Property tests: the XML codec round-trips arbitrary envelopes, skips
//! arbitrary unknown elements, and survives arbitrary damage to a
//! document.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use promises_wire::xml::{escape_into, MAX_DEPTH, MAX_DOCUMENT_BYTES};
use promises_wire::{
    decode, encode, ActionRequest, ActionResponse, EnvEntry, EnvRef, Envelope, EnvironmentHeader,
    PromiseRequestHeader, PromiseResponseHeader, PromiseResult, ResolutionHeader, ResolutionOp,
    ResolutionResponse, ResolveRef, TraceHeader,
};

fn arb_text() -> impl Strategy<Value = String> {
    // Includes XML-special characters to exercise escaping.
    "[a-zA-Z0-9 <>&'\"=_-]{0,24}"
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,8}"
}

fn arb_request() -> impl Strategy<Value = PromiseRequestHeader> {
    (
        arb_name(),
        arb_name(),
        proptest::collection::vec(arb_text(), 0..3),
        any::<u64>(),
        proptest::collection::vec(any::<u64>(), 0..3),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(request_id, client, predicates, duration_ms, exchange, negotiate, prepare)| {
                PromiseRequestHeader {
                    request_id,
                    client,
                    predicates: predicates.iter().map(|p| p.trim().to_owned()).collect(),
                    duration_ms,
                    exchange,
                    negotiate,
                    prepare,
                }
            },
        )
}

fn arb_resolve_ref() -> impl Strategy<Value = ResolveRef> {
    prop_oneof![
        any::<u64>().prop_map(ResolveRef::Id),
        (arb_name(), arb_name())
            .prop_map(|(client, request)| ResolveRef::Request { client, request }),
    ]
}

fn arb_resolution_op() -> impl Strategy<Value = ResolutionOp> {
    prop_oneof![Just(ResolutionOp::Commit), Just(ResolutionOp::Abort)]
}

fn arb_resolution() -> impl Strategy<Value = ResolutionHeader> {
    (arb_resolve_ref(), arb_resolution_op())
        .prop_map(|(reference, op)| ResolutionHeader { reference, op })
}

fn arb_resolution_response() -> impl Strategy<Value = ResolutionResponse> {
    (
        arb_resolve_ref(),
        arb_resolution_op(),
        any::<bool>(),
        proptest::option::of(arb_text()),
    )
        .prop_map(|(reference, op, applied, error)| ResolutionResponse {
            reference,
            op,
            applied,
            error,
        })
}

fn arb_result() -> impl Strategy<Value = PromiseResult> {
    prop_oneof![
        Just(PromiseResult::Accepted),
        arb_text().prop_map(PromiseResult::AcceptedWithCondition),
        arb_text().prop_map(PromiseResult::Rejected),
    ]
}

fn arb_response() -> impl Strategy<Value = PromiseResponseHeader> {
    (
        proptest::option::of(any::<u64>()),
        arb_result(),
        any::<u64>(),
        arb_name(),
        proptest::collection::vec(arb_text(), 0..2),
    )
        .prop_map(|(promise_id, result, expires_at, correlation, granted)| {
            PromiseResponseHeader {
                promise_id,
                result,
                expires_at,
                correlation,
                granted_predicates: granted.iter().map(|g| g.trim().to_owned()).collect(),
            }
        })
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        proptest::collection::vec(arb_request(), 0..3),
        proptest::collection::vec(arb_response(), 0..3),
        proptest::collection::vec(any::<u64>(), 0..3),
        proptest::collection::vec(arb_resolution(), 0..2),
        proptest::collection::vec(arb_resolution_response(), 0..2),
        proptest::option::of(proptest::collection::vec(
            (any::<bool>(), any::<u64>(), any::<bool>()),
            0..3,
        )),
        proptest::option::of((
            arb_name(),
            arb_name(),
            proptest::collection::vec((arb_name(), arb_text()), 0..3),
        )),
        proptest::option::of((
            any::<bool>(),
            proptest::option::of(arb_text()),
            proptest::collection::vec((arb_name(), arb_text()), 0..3),
        )),
        proptest::option::of((any::<u64>(), any::<u64>())),
    )
        .prop_map(
            |(
                reqs,
                resps,
                releases,
                resolutions,
                resolution_responses,
                env_entries,
                action,
                action_resp,
                trace,
            )| Envelope {
                promise_requests: reqs,
                promise_responses: resps,
                releases,
                resolutions,
                resolution_responses,
                environment: env_entries.map(|entries| EnvironmentHeader {
                    entries: entries
                        .into_iter()
                        .map(|(by_id, id, release_after)| EnvEntry {
                            reference: if by_id {
                                EnvRef::Id(id)
                            } else {
                                EnvRef::Correlation(format!("c{id}"))
                            },
                            release_after,
                        })
                        .collect(),
                }),
                action: action.map(|(service, operation, params)| {
                    let mut a = ActionRequest::new(&service, &operation);
                    for (k, v) in params {
                        a = a.param(&k, v.trim());
                    }
                    a
                }),
                action_response: action_resp.map(|(ok, error, fields)| {
                    let mut r = if ok {
                        ActionResponse::success()
                    } else {
                        ActionResponse::failure(error.clone().unwrap_or_default())
                    };
                    r.error = error;
                    r.ok = ok;
                    for (k, v) in fields {
                        r = r.field(&k, v.trim());
                    }
                    r
                }),
                trace: trace.map(|(trace, span)| TraceHeader { trace, span }),
            },
        )
}

fn quoted(value: &str, double: bool) -> String {
    let mut out = String::new();
    escape_into(value, &mut out);
    if double {
        format!("\"{out}\"")
    } else {
        format!("'{out}'")
    }
}

/// A well-formed element the envelope does not know (every name starts
/// `x-`), with attributes in either quote, text and nested children.
fn arb_unknown_element() -> impl Strategy<Value = String> {
    let leaf = (
        arb_name(),
        proptest::collection::vec((arb_name(), arb_text(), any::<bool>()), 0..3),
        arb_text(),
    )
        .prop_map(|(name, attrs, text)| {
            let attrs: String = attrs
                .iter()
                .map(|(k, v, double)| format!(" {k} = {}", quoted(v, *double)))
                .collect();
            let mut body = String::new();
            escape_into(&text, &mut body);
            format!("<x-{name}{attrs}>{body}</x-{name} >")
        });
    leaf.prop_recursive(3, 20, 3, |inner| {
        (arb_name(), proptest::collection::vec(inner, 0..4))
            .prop_map(|(name, children)| format!("<x-{name}>{}</x-{name}>", children.concat()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn envelope_roundtrips(envelope in arb_envelope()) {
        let xml = encode(&envelope);
        let back = decode(&xml)
            .map_err(|e| TestCaseError::fail(format!("{xml:?}: {e}")))?;
        prop_assert_eq!(back, envelope);
    }

    /// Unknown elements anywhere inside the document element, and
    /// whitespace between elements, change nothing the decoder returns.
    #[test]
    fn unknown_elements_are_skipped(
        envelope in arb_envelope(),
        junk in proptest::collection::vec((any::<u64>(), arb_unknown_element()), 1..4),
    ) {
        let xml = encode(&envelope);
        // Every `>` but the document element's last one closes a tag
        // inside it.
        let ends: Vec<usize> = xml.match_indices('>').map(|(at, _)| at + 1).collect();
        let mut at: Vec<(usize, &String)> = junk
            .iter()
            .map(|(pick, element)| (ends[*pick as usize % (ends.len() - 1)], element))
            .collect();
        at.sort();
        let mut doc = xml.clone();
        for (at, element) in at.into_iter().rev() {
            doc.insert_str(at, element);
        }
        let doc = format!(" \n{doc}\t");
        let back = decode(&doc)
            .map_err(|e| TestCaseError::fail(format!("{doc:?}: {e}")))?;
        prop_assert_eq!(back, envelope);
    }
}

/// A byte offset on a character boundary of `s`, the end included.
fn boundary(s: &str, rng: &mut TestRng) -> usize {
    let mut at = rng.below(s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Where the element whose start tag begins at `start` ends, in a
/// document the codec wrote (its text and values hold no raw `<` or `>`).
fn element_end(doc: &str, start: usize) -> usize {
    let (mut depth, mut at) = (0usize, start);
    loop {
        let open = at + doc[at..].find('<').expect("a tag");
        at = open + doc[open..].find('>').expect("a tag end") + 1;
        let tag = &doc[open..at];
        if tag.starts_with("</") {
            depth -= 1;
        } else if !tag.ends_with("/>") {
            depth += 1;
        }
        if depth == 0 {
            return at;
        }
    }
}

/// Every damaged copy of `doc` the fuzzer tries: truncated at every
/// character, bits flipped, spliced with `other`, odd characters and
/// entities injected, an element repeated or nested deep, double quotes,
/// extra whitespace.
fn mutations(doc: &str, other: &str, rng: &mut TestRng) -> Vec<String> {
    let mut out: Vec<String> = doc.char_indices().map(|(at, _)| doc[..at].into()).collect();
    for _ in 0..16 {
        let mut bytes = doc.as_bytes().to_vec();
        let at = rng.below(bytes.len());
        bytes[at] ^= 1 << rng.below(8);
        out.push(String::from_utf8_lossy(&bytes).into_owned());
    }
    for _ in 0..8 {
        let (a, b) = (boundary(doc, rng), boundary(other, rng));
        out.push(format!("{}{}", &doc[..a], &other[b..]));
    }
    for inject in [
        "\0", "\u{a0}", "\u{2028}", "&", "&amp;", "&bogus;", "&lt", "'", "\"", "<", ">", "</x>",
        "<x/>", " ",
    ] {
        let at = boundary(doc, rng);
        out.push(format!("{}{inject}{}", &doc[..at], &doc[at..]));
    }
    let starts: Vec<usize> = doc
        .match_indices('<')
        .map(|(at, _)| at)
        .filter(|&at| !doc[at..].starts_with("</"))
        .collect();
    for n in [2, 16, MAX_DEPTH - 4, MAX_DEPTH, 4 * MAX_DEPTH] {
        let start = starts[rng.below(starts.len())];
        let end = element_end(doc, start);
        let element = &doc[start..end];
        let (head, tail) = (&doc[..start], &doc[end..]);
        out.push(format!("{head}{}{tail}", element.repeat(n)));
        out.push(format!(
            "{head}{}{element}{}{tail}",
            "<x-deep>".repeat(n),
            "</x-deep>".repeat(n)
        ));
    }
    out.push(doc.replace('\'', "\""));
    out.push(doc.replace("><", ">\n\u{a0} <").replace("='", " =\t'"));
    out
}

/// `decode` never panics on a damaged document: it returns a typed error,
/// or an envelope that survives its own round trip. Over 10^4 inputs.
#[test]
fn decode_survives_mutations() {
    let mut rng = TestRng::deterministic("codec_prop::decode_survives_mutations");
    let strategy = arb_envelope();
    let (mut inputs, mut decoded) = (0, 0);
    let mut previous = encode(&strategy.generate(&mut rng));
    for _ in 0..48 {
        let doc = encode(&strategy.generate(&mut rng));
        for input in mutations(&doc, &previous, &mut rng) {
            inputs += 1;
            let result = catch_unwind(AssertUnwindSafe(|| decode(&input)))
                .unwrap_or_else(|_| panic!("decode panicked on {input:?}"));
            if let Ok(env) = result {
                decoded += 1;
                // Escaping may lengthen a document the reader took whole.
                let xml = encode(&env);
                if xml.len() <= MAX_DOCUMENT_BYTES {
                    assert_eq!(decode(&xml).as_ref(), Ok(&env), "{input:?}");
                }
            }
        }
        previous = doc;
    }
    assert!(inputs >= 10_000, "only {inputs} inputs");
    assert!(
        decoded > 0 && decoded < inputs,
        "{decoded} of {inputs} decoded"
    );
}
