//! A hostile document cannot abort the process: elements nested past the
//! reader's depth limit are refused with an `XmlError`, where a recursive
//! descent used to overflow the stack. It runs in a test binary of its
//! own, so a reader that still overflows kills only this one.

use promises_wire::xml::{MAX_DEPTH, MAX_DOCUMENT_BYTES};
use promises_wire::{decode, CodecError, Envelope};

/// An envelope whose body holds an unknown element nested `depth` deep,
/// the envelope counting as 1; open tags only when `closed` is false.
fn nested(depth: usize, closed: bool) -> String {
    let inner = depth - 2;
    let close = if closed {
        "</a>".repeat(inner)
    } else {
        String::new()
    };
    format!(
        "<envelope><body>{}{close}</body></envelope>",
        "<a>".repeat(inner)
    )
}

fn refusal(doc: &str) -> String {
    match decode(doc) {
        Err(CodecError::Xml(e)) => e.message,
        other => panic!("{} bytes: expected an XML error, got {other:?}", doc.len()),
    }
}

#[test]
fn a_document_nested_200_000_deep_is_refused() {
    // 200 000 levels do not fit under the byte limit, closed or not.
    assert!(refusal(&nested(200_000, false)).contains("longer than"));
    // 20 000 levels of open tags do, so it is the depth check that stops
    // them, at the first level past the limit.
    let open = nested(20_000, false);
    assert!(open.len() <= MAX_DOCUMENT_BYTES);
    assert!(refusal(&open).contains("nested deeper"));
    assert!(refusal(&nested(MAX_DEPTH + 1, true)).contains("nested deeper"));
}

#[test]
fn a_document_nested_within_the_limit_parses() {
    for depth in [50, MAX_DEPTH] {
        assert_eq!(decode(&nested(depth, true)), Ok(Envelope::new()), "{depth}");
    }
}
