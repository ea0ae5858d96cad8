//! A hostile document cannot abort the process: elements nested past the
//! parser's depth limit are refused with an `XmlError`, where the
//! recursive descent used to overflow the stack. It runs in a test binary
//! of its own, so a parser that still overflows kills only this one.

use promises_wire::xml::parse;

fn nested(depth: usize) -> String {
    format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth))
}

#[test]
fn a_document_nested_200_000_deep_is_refused() {
    let err = parse(&nested(200_000)).expect_err("refused");
    assert!(err.message.contains("nested deeper"), "{err}");
}

#[test]
fn a_document_nested_within_the_limit_parses() {
    let mut el = &parse(&nested(50)).unwrap();
    for _ in 1..50 {
        el = &el.children[0];
    }
    assert!(el.children.is_empty());
}
