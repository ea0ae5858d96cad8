//! A hostile predicate cannot abort the process: an expression nested past
//! the parser's depth limit is refused with a `ParseError`, where the
//! recursive descent used to overflow the stack. It runs in a test binary
//! of its own, so a parser that still overflows kills only this one.

use promises_core::{parse_predicate, Predicate};

fn negated(depth: usize) -> String {
    format!("prop('rooms', 1): {}true", "!".repeat(depth))
}

#[test]
fn an_expression_nested_100_000_deep_is_refused() {
    let err = parse_predicate(&negated(100_000)).expect_err("refused");
    assert!(err.message.contains("nested deeper"), "{err}");
}

#[test]
fn an_expression_nested_within_the_limit_parses() {
    let parsed = parse_predicate(&negated(50)).unwrap();
    assert!(matches!(parsed, Predicate::Property { .. }), "{parsed:?}");
}
