//! A text syntax for predicates, used by the wire protocol.
//!
//! The paper (§3) suggests predicates "written in a standard language such
//! as XPath or SQL" so that a general-purpose promise manager can carry
//! them opaquely. This module defines a small, unambiguous predicate
//! language matching the [`crate::Predicate`] model:
//!
//! ```text
//! predicate := qty | named | prop
//! qty       := "qty(" string ")" ">=" int
//! named     := "named(" string "," string ")"
//! prop      := "prop(" string ["," int] "):" expr
//! expr      := or
//! or        := and { "||" and }
//! and       := unary { "&&" unary }
//! unary     := "!" unary | "(" expr ")" | "true"
//!            | "desirable(" expr ")" | "atleast(" ident "," value ")"
//!            | ident cmp value
//! cmp       := "==" | "!=" | "<=" | ">=" | "<" | ">"
//! value     := int | "true" | "false" | string
//! string    := "'" chars "'"
//! ```
//!
//! Examples: `qty('pink widgets') >= 5`,
//! `prop('rooms', 1): floor == 5 && desirable(view == true)`.

use std::fmt;

use promises_rm::Value;

use crate::ids::{InstanceId, PoolId};
use crate::predicate::{CmpOp, Predicate, PropExpr};

/// Parse error with byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How many `!`, `(` and `desirable(` operators may nest. No test or
/// encoder in the workspace prints an expression nested deeper than 8 (the
/// property tests' four-level trees, `!(` counting two); one nested deeper
/// than this is refused, not recursed into until the stack overflows.
const MAX_DEPTH: usize = 64;

/// Parses one predicate from the text syntax.
pub fn parse_predicate(input: &str) -> Result<Predicate, ParseError> {
    let mut p = Parser::new(input);
    let pred = p.predicate()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after predicate"));
    }
    Ok(pred)
}

/// Parses a property expression from the text syntax.
pub fn parse_expr(input: &str) -> Result<PropExpr, ParseError> {
    let mut p = Parser::new(input);
    let e = p.expr(0)?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(e)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, pos: 0 }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: msg.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn skip_ws(&mut self) {
        while self
            .rest()
            .chars()
            .next()
            .map(char::is_whitespace)
            .unwrap_or(false)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(format!("expected {token:?}")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        for c in self.rest().chars() {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            Err(self.err("expected identifier"))
        } else {
            Ok(self.src[start..self.pos].to_owned())
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect("'")?;
        let start = self.pos;
        while let Some(c) = self.rest().chars().next() {
            if c == '\'' {
                let s = self.src[start..self.pos].to_owned();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += c.len_utf8();
        }
        Err(self.err("unterminated string literal"))
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.rest().starts_with('-') {
            self.pos += 1;
        }
        while self
            .rest()
            .chars()
            .next()
            .map(|c| c.is_ascii_digit())
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("expected integer"))
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        if self.rest().starts_with('\'') {
            return Ok(Value::Str(self.string()?));
        }
        if self.eat("true") {
            return Ok(Value::Bool(true));
        }
        if self.eat("false") {
            return Ok(Value::Bool(false));
        }
        Ok(Value::Int(self.int()?))
    }

    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        self.skip_ws();
        if self.eat("qty(") {
            let pool = self.string()?;
            self.expect(")")?;
            self.expect(">=")?;
            let n = self.int()?;
            if n < 0 {
                return Err(self.err("quantity must be non-negative"));
            }
            return Ok(Predicate::QtyAtLeast {
                pool: PoolId(pool),
                amount: n as u64,
            });
        }
        if self.eat("named(") {
            let pool = self.string()?;
            self.expect(",")?;
            let inst = self.string()?;
            self.expect(")")?;
            return Ok(Predicate::Named {
                pool: PoolId(pool),
                instance: InstanceId(inst),
            });
        }
        if self.eat("prop(") {
            let pool = self.string()?;
            let count = if self.eat(",") { self.int()? } else { 1 };
            if count < 1 {
                return Err(self.err("instance count must be >= 1"));
            }
            self.expect(")")?;
            self.expect(":")?;
            let expr = self.expr(0)?;
            return Ok(Predicate::property(pool, expr, count as u32));
        }
        Err(self.err("expected qty(...), named(...) or prop(...)"))
    }

    /// Parses a disjunction `depth` operators deep (see [`MAX_DEPTH`]).
    fn expr(&mut self, depth: usize) -> Result<PropExpr, ParseError> {
        let mut terms = vec![self.and_expr(depth)?];
        while self.eat("||") {
            terms.push(self.and_expr(depth)?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("non-empty")
        } else {
            PropExpr::Or(terms)
        })
    }

    fn and_expr(&mut self, depth: usize) -> Result<PropExpr, ParseError> {
        let mut terms = vec![self.unary(depth)?];
        while self.eat("&&") {
            terms.push(self.unary(depth)?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("non-empty")
        } else {
            PropExpr::And(terms)
        })
    }

    fn unary(&mut self, depth: usize) -> Result<PropExpr, ParseError> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return Err(self.err(format!("expression nested deeper than {MAX_DEPTH}")));
        }
        if self.eat("!") {
            return Ok(PropExpr::Not(Box::new(self.unary(depth + 1)?)));
        }
        if self.eat("(") {
            let e = self.expr(depth + 1)?;
            self.expect(")")?;
            return Ok(e);
        }
        if self.eat("desirable(") {
            let e = self.expr(depth + 1)?;
            self.expect(")")?;
            return Ok(PropExpr::Desirable(Box::new(e)));
        }
        if self.eat("atleast(") {
            let prop = self.ident()?;
            self.expect(",")?;
            let value = self.value()?;
            self.expect(")")?;
            return Ok(PropExpr::AtLeastRank { prop, value });
        }
        // `true` literal (must not swallow identifiers starting with true*).
        {
            let save = self.pos;
            if self.eat("true") {
                let next = self.rest().chars().next();
                if !matches!(next, Some(c) if c.is_alphanumeric() || c == '_' || c == '-') {
                    return Ok(PropExpr::True);
                }
                self.pos = save;
            }
        }
        let prop = self.ident()?;
        self.skip_ws();
        let op = if self.eat("==") {
            CmpOp::Eq
        } else if self.eat("!=") {
            CmpOp::Ne
        } else if self.eat("<=") {
            CmpOp::Le
        } else if self.eat(">=") {
            CmpOp::Ge
        } else if self.eat("<") {
            CmpOp::Lt
        } else if self.eat(">") {
            CmpOp::Gt
        } else {
            return Err(self.err("expected comparison operator"));
        };
        let value = self.value()?;
        Ok(PropExpr::Cmp { prop, op, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_qty() {
        let p = parse_predicate("qty('pink widgets') >= 5").unwrap();
        assert_eq!(p, Predicate::qty_at_least("pink widgets", 5));
    }

    #[test]
    fn parses_named() {
        let p = parse_predicate("named('rooms', 'room-512')").unwrap();
        assert_eq!(p, Predicate::named("rooms", "room-512"));
    }

    #[test]
    fn parses_property_with_count_and_boolean_structure() {
        let p = parse_predicate(
            "prop('rooms', 2): floor == 5 && (view == true || class >= 2) && !(smoking == true)",
        )
        .unwrap();
        let Predicate::Property { pool, expr, count } = p else {
            panic!("wrong variant");
        };
        assert_eq!(pool, PoolId::from("rooms"));
        assert_eq!(count, 2);
        assert_eq!(
            expr.to_string(),
            "(floor == 5 && (view == true || class >= 2) && !(smoking == true))"
        );
    }

    #[test]
    fn property_count_defaults_to_one() {
        let p = parse_predicate("prop('rooms'): true").unwrap();
        assert_eq!(p, Predicate::property("rooms", PropExpr::True, 1));
    }

    #[test]
    fn parses_desirable_and_atleast() {
        let e = parse_expr("desirable(atleast(class, 'deluxe')) && beds == 2").unwrap();
        assert_eq!(e.desirable_count(), 1);
        assert_eq!(
            e.to_string(),
            "(desirable(atleast(class, 'deluxe')) && beds == 2)"
        );
    }

    #[test]
    fn parses_all_cmp_ops_and_values() {
        for (src, expected) in [
            ("a == 1", "a == 1"),
            ("a != -3", "a != -3"),
            ("a < 2", "a < 2"),
            ("a <= 2", "a <= 2"),
            ("a > 2", "a > 2"),
            ("a >= 2", "a >= 2"),
            ("a == true", "a == true"),
            ("a == false", "a == false"),
            ("a == 'x y'", "a == 'x y'"),
        ] {
            assert_eq!(parse_expr(src).unwrap().to_string(), expected);
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        let exprs = [
            "qty('w') >= 3",
            "named('rooms', '512')",
            "prop('rooms', 2): floor == 5",
        ];
        for src in exprs {
            let p = parse_predicate(src).unwrap();
            let p2 = parse_predicate(&p.to_string()).unwrap();
            assert_eq!(p, p2, "roundtrip failed for {src}");
        }
    }

    #[test]
    fn true_literal_vs_identifier() {
        assert_eq!(parse_expr("true").unwrap(), PropExpr::True);
        // An identifier that merely starts with "true".
        let e = parse_expr("truthy == 1");
        assert!(e.is_ok());
        let e = parse_expr("true_flag == 1").unwrap();
        assert_eq!(e.to_string(), "true_flag == 1");
    }

    #[test]
    fn errors_carry_position() {
        let e = parse_predicate("qty('w') >= ").unwrap_err();
        assert!(e.at > 0);
        assert!(e.to_string().contains("integer"));
        assert!(parse_predicate("bogus").is_err());
        assert!(parse_predicate("qty('w') >= 5 extra").is_err());
        assert!(parse_expr("a ==").is_err());
        assert!(parse_expr("'unterminated").is_err());
        assert!(parse_predicate("qty('w') >= -2").is_err());
        assert!(parse_predicate("prop('r', 0): true").is_err());
    }
}
