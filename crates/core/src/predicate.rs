//! Predicates: the boolean conditions a promise maintains.
//!
//! "Predicates are simply Boolean expressions over resources. Our model
//! imposes no restrictions on the form these expressions can take" (§3).
//! This implementation provides a typed expression tree covering the three
//! resource views of §3 plus the §3.3 refinements (ordered "or better"
//! values and essential-vs-desirable clauses used in negotiation). A text
//! syntax for the wire protocol lives in [`crate::parser`].

use std::fmt;

use promises_rm::{Record, Value};

use crate::ids::{InstanceId, PoolId};
use crate::schema::PoolSchema;

/// Comparison operators over property values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A boolean expression over the properties of one resource instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropExpr {
    /// Always true: the anonymous view over an instance pool ("any
    /// economy seat" becomes `AtLeastRank(class, economy)`, "any instance
    /// at all" becomes `True`).
    True,
    /// Compare a property against a constant. Cross-type comparisons are
    /// false (never a panic): a promise over a mistyped property simply
    /// cannot be satisfied.
    Cmp {
        /// Property name.
        prop: String,
        /// Operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// Ordered acceptability (§3.3): satisfied by the requested value *or
    /// any better one* according to the pool schema's declared order
    /// (e.g. an economy promise satisfied by a business-class seat).
    AtLeastRank {
        /// Property name (must be schema-ordered).
        prop: String,
        /// Minimum acceptable value.
        value: Value,
    },
    /// Conjunction.
    And(Vec<PropExpr>),
    /// Disjunction.
    Or(Vec<PropExpr>),
    /// Negation.
    Not(Box<PropExpr>),
    /// A desirable-but-not-essential clause (§3.3). Evaluates like its
    /// inner expression, but negotiation may weaken a rejected
    /// request by replacing desirable clauses with `True`.
    Desirable(Box<PropExpr>),
}

impl PropExpr {
    /// Convenience: `prop == value`.
    pub fn eq(prop: &str, value: impl Into<Value>) -> Self {
        PropExpr::Cmp {
            prop: prop.to_owned(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Convenience: `prop <cmp> value`.
    pub fn cmp(prop: &str, op: CmpOp, value: impl Into<Value>) -> Self {
        PropExpr::Cmp {
            prop: prop.to_owned(),
            op,
            value: value.into(),
        }
    }

    /// Convenience: the ordered "this value or better" clause.
    pub fn at_least(prop: &str, value: impl Into<Value>) -> Self {
        PropExpr::AtLeastRank {
            prop: prop.to_owned(),
            value: value.into(),
        }
    }

    /// Convenience: conjunction of clauses.
    pub fn all(clauses: impl IntoIterator<Item = PropExpr>) -> Self {
        PropExpr::And(clauses.into_iter().collect())
    }

    /// Marks an expression desirable rather than essential.
    pub fn desirable(self) -> Self {
        PropExpr::Desirable(Box::new(self))
    }

    /// Evaluates against an instance's property record.
    pub fn eval(&self, rec: &Record, schema: &PoolSchema) -> bool {
        match self {
            PropExpr::True => true,
            PropExpr::Cmp { prop, op, value } => rec
                .get(prop)
                .and_then(|actual| actual.partial_cmp_same(value))
                .map(|ord| op.eval(ord))
                .unwrap_or(false),
            PropExpr::AtLeastRank { prop, value } => {
                let wanted = match schema.rank(prop, value) {
                    Some(r) => r,
                    None => return false,
                };
                match rec.get(prop).and_then(|actual| schema.rank(prop, actual)) {
                    Some(actual_rank) => actual_rank >= wanted,
                    None => false,
                }
            }
            PropExpr::And(cs) => cs.iter().all(|c| c.eval(rec, schema)),
            PropExpr::Or(cs) => cs.iter().any(|c| c.eval(rec, schema)),
            PropExpr::Not(c) => !c.eval(rec, schema),
            PropExpr::Desirable(c) => c.eval(rec, schema),
        }
    }

    /// Number of desirable clauses in the tree (DFS order).
    pub fn desirable_count(&self) -> usize {
        match self {
            PropExpr::Desirable(c) => 1 + c.desirable_count(),
            PropExpr::And(cs) | PropExpr::Or(cs) => cs.iter().map(Self::desirable_count).sum(),
            PropExpr::Not(c) => c.desirable_count(),
            _ => 0,
        }
    }

    /// Returns a copy with the *last* `drop` desirable clauses (in DFS
    /// order) replaced by `True`. Used by negotiation to weaken a request
    /// one step at a time, dropping the least important clause first.
    pub fn weakened(&self, drop: usize) -> PropExpr {
        let total = self.desirable_count();
        let keep = total.saturating_sub(drop);
        let mut seen = 0usize;
        self.weaken_walk(&mut seen, keep)
    }

    fn weaken_walk(&self, seen: &mut usize, keep: usize) -> PropExpr {
        match self {
            PropExpr::Desirable(c) => {
                let idx = *seen;
                *seen += 1;
                if idx < keep {
                    PropExpr::Desirable(Box::new(c.weaken_walk(seen, keep)))
                } else {
                    // Still count nested desirables so indices stay stable.
                    let _ = c.weaken_walk(seen, keep);
                    PropExpr::True
                }
            }
            PropExpr::And(cs) => {
                PropExpr::And(cs.iter().map(|c| c.weaken_walk(seen, keep)).collect())
            }
            PropExpr::Or(cs) => {
                PropExpr::Or(cs.iter().map(|c| c.weaken_walk(seen, keep)).collect())
            }
            PropExpr::Not(c) => PropExpr::Not(Box::new(c.weaken_walk(seen, keep))),
            other => other.clone(),
        }
    }
}

impl fmt::Display for PropExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropExpr::True => f.write_str("true"),
            PropExpr::Cmp { prop, op, value } => match value {
                Value::Str(s) => write!(f, "{prop} {op} '{s}'"),
                v => write!(f, "{prop} {op} {v}"),
            },
            PropExpr::AtLeastRank { prop, value } => match value {
                Value::Str(s) => write!(f, "atleast({prop}, '{s}')"),
                v => write!(f, "atleast({prop}, {v})"),
            },
            PropExpr::And(cs) => join(f, cs, " && "),
            PropExpr::Or(cs) => join(f, cs, " || "),
            PropExpr::Not(c) => write!(f, "!({c})"),
            PropExpr::Desirable(c) => write!(f, "desirable({c})"),
        }
    }
}

fn join(f: &mut fmt::Formatter<'_>, cs: &[PropExpr], sep: &str) -> fmt::Result {
    if cs.is_empty() {
        return f.write_str("true");
    }
    write!(f, "(")?;
    for (i, c) in cs.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        write!(f, "{c}")?;
    }
    write!(f, ")")
}

/// One promised condition over one pool: the unit carried in promise
/// requests (§6 pairs "predicates" with "resources"; here the pool id is
/// embedded so a request is just `Vec<Predicate>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Anonymous view over a quantity pool: at least `amount` units remain
    /// available to this promise (e.g. `qty('pink widgets') >= 5`).
    QtyAtLeast {
        /// Quantity pool.
        pool: PoolId,
        /// Units required.
        amount: u64,
    },
    /// Named view: this exact instance stays available.
    Named {
        /// Instance pool.
        pool: PoolId,
        /// The instance.
        instance: InstanceId,
    },
    /// Property view: `count` *distinct* instances matching `expr` stay
    /// available to this promise.
    Property {
        /// Instance pool.
        pool: PoolId,
        /// Condition each instance must satisfy. Boxed: the expression tree
        /// is the enum's largest payload, and every `Vec<Predicate>` slot
        /// is the enum's full size.
        expr: Box<PropExpr>,
        /// Number of distinct instances required.
        count: u32,
    },
}

impl Predicate {
    /// The pool this predicate constrains.
    pub fn pool(&self) -> &PoolId {
        match self {
            Predicate::QtyAtLeast { pool, .. }
            | Predicate::Named { pool, .. }
            | Predicate::Property { pool, .. } => pool,
        }
    }

    /// Convenience constructor for the anonymous quantity view.
    pub fn qty_at_least(pool: impl Into<PoolId>, amount: u64) -> Self {
        Predicate::QtyAtLeast {
            pool: pool.into(),
            amount,
        }
    }

    /// Convenience constructor for the named view.
    pub fn named(pool: impl Into<PoolId>, instance: impl Into<InstanceId>) -> Self {
        Predicate::Named {
            pool: pool.into(),
            instance: instance.into(),
        }
    }

    /// Convenience constructor for the property view.
    pub fn property(pool: impl Into<PoolId>, expr: PropExpr, count: u32) -> Self {
        Predicate::Property {
            pool: pool.into(),
            expr: Box::new(expr),
            count,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::QtyAtLeast { pool, amount } => write!(f, "qty('{pool}') >= {amount}"),
            Predicate::Named { pool, instance } => write!(f, "named('{pool}', '{instance}')"),
            Predicate::Property { pool, expr, count } => {
                write!(f, "prop('{pool}', {count}): {expr}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{PoolSchema, PropertyDef};

    fn hotel_schema() -> PoolSchema {
        PoolSchema::instances(
            "rooms",
            vec![
                PropertyDef::plain("floor"),
                PropertyDef::plain("view"),
                PropertyDef::ordered("class", &["standard", "deluxe", "suite"]),
            ],
        )
    }

    fn room(floor: i64, view: bool, class: &str) -> Record {
        Record::new()
            .with("floor", floor)
            .with("view", view)
            .with("class", class)
    }

    #[test]
    fn cmp_ops_evaluate() {
        let s = hotel_schema();
        let r = room(5, true, "standard");
        assert!(PropExpr::eq("floor", 5i64).eval(&r, &s));
        assert!(PropExpr::cmp("floor", CmpOp::Ge, 3i64).eval(&r, &s));
        assert!(PropExpr::cmp("floor", CmpOp::Lt, 6i64).eval(&r, &s));
        assert!(!PropExpr::cmp("floor", CmpOp::Gt, 5i64).eval(&r, &s));
        assert!(PropExpr::cmp("floor", CmpOp::Ne, 4i64).eval(&r, &s));
        assert!(PropExpr::eq("view", true).eval(&r, &s));
    }

    #[test]
    fn cross_type_comparison_is_false_not_panic() {
        let s = hotel_schema();
        let r = room(5, true, "standard");
        assert!(!PropExpr::eq("floor", "five").eval(&r, &s));
        assert!(!PropExpr::eq("missing", 1i64).eval(&r, &s));
    }

    #[test]
    fn ordered_or_better_semantics() {
        let s = hotel_schema();
        let want_deluxe = PropExpr::at_least("class", "deluxe");
        assert!(!want_deluxe.eval(&room(1, false, "standard"), &s));
        assert!(want_deluxe.eval(&room(1, false, "deluxe"), &s));
        assert!(want_deluxe.eval(&room(1, false, "suite"), &s), "upgrade ok");
        // Unknown requested value can never be satisfied.
        assert!(!PropExpr::at_least("class", "palace").eval(&room(1, false, "suite"), &s));
        // Unordered property cannot be used with atleast.
        assert!(!PropExpr::at_least("floor", 1i64).eval(&room(1, false, "suite"), &s));
    }

    #[test]
    fn boolean_combinators() {
        let s = hotel_schema();
        let r = room(5, true, "standard");
        let e = PropExpr::all([PropExpr::eq("floor", 5i64), PropExpr::eq("view", true)]);
        assert!(e.eval(&r, &s));
        let e = PropExpr::Or(vec![
            PropExpr::eq("floor", 9i64),
            PropExpr::eq("view", true),
        ]);
        assert!(e.eval(&r, &s));
        let e = PropExpr::Not(Box::new(PropExpr::eq("view", false)));
        assert!(e.eval(&r, &s));
        assert!(PropExpr::And(vec![]).eval(&r, &s), "empty And is true");
        assert!(!PropExpr::Or(vec![]).eval(&r, &s), "empty Or is false");
    }

    #[test]
    fn desirable_evaluates_like_inner_but_is_weakenable() {
        let s = hotel_schema();
        let e = PropExpr::all([
            PropExpr::eq("floor", 5i64),
            PropExpr::eq("view", true).desirable(),
            PropExpr::eq("class", "suite").desirable(),
        ]);
        assert_eq!(e.desirable_count(), 2);
        let r = room(5, false, "standard");
        assert!(
            !e.eval(&r, &s),
            "desirables still required before weakening"
        );
        // Drop the last desirable (suite) only.
        let w1 = e.weakened(1);
        assert!(!w1.eval(&r, &s), "view desirable still required");
        assert!(w1.eval(&room(5, true, "standard"), &s));
        // Drop both.
        let w2 = e.weakened(2);
        assert!(w2.eval(&r, &s), "essential floor clause alone remains");
        // Essentials are never dropped.
        assert!(!w2.eval(&room(4, true, "suite"), &s));
    }

    #[test]
    fn weakened_beyond_count_is_saturating() {
        let e = PropExpr::eq("view", true).desirable();
        assert_eq!(e.weakened(10), PropExpr::True);
    }

    #[test]
    fn predicate_accessors_and_display() {
        let p = Predicate::qty_at_least("widgets", 5);
        assert_eq!(p.pool(), &PoolId::from("widgets"));
        assert_eq!(p.to_string(), "qty('widgets') >= 5");
        let p = Predicate::named("rooms", crate::ids::InstanceId("512".into()));
        assert_eq!(p.to_string(), "named('rooms', '512')");
        let p = Predicate::property("rooms", PropExpr::eq("view", true), 2);
        assert_eq!(p.to_string(), "prop('rooms', 2): view == true");
    }

    #[test]
    fn a_predicate_is_no_larger_than_its_named_view() {
        assert_eq!(std::mem::size_of::<Predicate>(), 48);
    }

    #[test]
    fn expr_display_roundtrips_visually() {
        let e = PropExpr::all([
            PropExpr::eq("floor", 5i64),
            PropExpr::Not(Box::new(PropExpr::eq("smoking", true))),
            PropExpr::at_least("class", "deluxe").desirable(),
        ]);
        assert_eq!(
            e.to_string(),
            "(floor == 5 && !(smoking == true) && desirable(atleast(class, 'deluxe')))"
        );
    }
}
