//! Pool schemas: how a resource pool is viewed and checked.
//!
//! Section 3 of the paper distinguishes *anonymous*, *named*, and
//! *property-based* views of resources. Views are "about the way client
//! applications view the resources, not about the resources themselves",
//! so the schema distinguishes only two physical pool kinds:
//!
//! * [`PoolKind::Quantity`] — a counter of interchangeable units
//!   ("quantity on hand", "account balance"); supports the anonymous view.
//! * [`PoolKind::Instances`] — a set of distinguishable records; supports
//!   the named view, the property view, and an anonymous view desugared to
//!   a property predicate that matches anything.
//!
//! Section 5 lists several implementation techniques for guaranteeing
//! promises; [`CheckStrategy`] selects one per instance pool so the
//! techniques can be compared head-to-head (experiment E7).

use promises_rm::Value;

use crate::ids::PoolId;

/// Physical kind of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// A single quantity-on-hand counter (anonymous view only).
    Quantity,
    /// Distinguishable instances with properties (named/property views).
    Instances,
}

/// Which of the paper's §5 implementation techniques guards an instance
/// pool. Quantity pools always use the resource-pool counter technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckStrategy {
    /// "Allocated tags": grant immediately allocates chosen instances to
    /// the promise (its record's `allocations`); a request is rejected if
    /// no *free* instance — untaken and allocated to no live promise —
    /// fits, even when re-arranging existing allocations would succeed.
    AllocatedTags,
    /// "Satisfiability check": nothing is marked at grant time; every
    /// check solves the full bipartite matching between live promises and
    /// untaken instances. Maximally permissive, most expensive per check.
    Satisfiability,
    /// "Tentative allocation": instances are allocated like
    /// `AllocatedTags`, but a request that finds no free instance may
    /// *re-arrange* existing tentative allocations (augmenting path) before
    /// giving up. Grants exactly what `Satisfiability` grants at
    /// incremental cost.
    #[default]
    TentativeAllocation,
}

/// Declares one property of an instance pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyDef {
    /// Property (field) name, e.g. `floor`, `view`, `class`.
    pub name: String,
    /// For string-valued properties with an acceptability order (paper
    /// §3.3: "a promise can be satisfied ... by one offering a 'better'
    /// value"), the values from worst to best, e.g.
    /// `["economy", "premium", "business", "first"]`.
    pub order: Option<Vec<String>>,
}

impl PropertyDef {
    /// A plain, unordered property.
    pub fn plain(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            order: None,
        }
    }

    /// A property whose string values are ranked worst-to-best.
    pub fn ordered(name: &str, order: &[&str]) -> Self {
        Self {
            name: name.to_owned(),
            order: Some(order.iter().map(|s| (*s).to_owned()).collect()),
        }
    }
}

/// Schema of one pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSchema {
    /// Pool identifier.
    pub id: PoolId,
    /// Physical kind.
    pub kind: PoolKind,
    /// Declared properties (instance pools only; informational for
    /// quantity pools).
    pub properties: Vec<PropertyDef>,
    /// Checking technique for instance pools.
    pub strategy: CheckStrategy,
}

impl PoolSchema {
    /// A quantity pool (anonymous view).
    pub fn quantity(id: impl Into<PoolId>) -> Self {
        Self {
            id: id.into(),
            kind: PoolKind::Quantity,
            properties: Vec::new(),
            strategy: CheckStrategy::default(),
        }
    }

    /// An instance pool with the given properties and the default
    /// (tentative-allocation) strategy.
    pub fn instances(id: impl Into<PoolId>, properties: Vec<PropertyDef>) -> Self {
        Self {
            id: id.into(),
            kind: PoolKind::Instances,
            properties,
            strategy: CheckStrategy::default(),
        }
    }

    /// Overrides the checking strategy.
    pub fn with_strategy(mut self, strategy: CheckStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Rank of `value` in the declared order of `prop` (0 = worst).
    /// `None` if the property is unordered, unknown, or the value is not a
    /// member of the order.
    pub fn rank(&self, prop: &str, value: &Value) -> Option<usize> {
        let def = self.properties.iter().find(|p| p.name == prop)?;
        let order = def.order.as_ref()?;
        let s = value.as_str()?;
        order.iter().position(|v| v == s)
    }
}

impl From<String> for PoolId {
    fn from(s: String) -> Self {
        PoolId(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantity_schema_defaults() {
        let s = PoolSchema::quantity("widgets");
        assert_eq!(s.kind, PoolKind::Quantity);
        assert!(s.properties.is_empty());
    }

    #[test]
    fn rank_uses_declared_order() {
        let s = PoolSchema::instances(
            "seats",
            vec![
                PropertyDef::ordered("class", &["economy", "premium", "business", "first"]),
                PropertyDef::plain("window"),
            ],
        );
        assert_eq!(s.rank("class", &Value::Str("economy".into())), Some(0));
        assert_eq!(s.rank("class", &Value::Str("first".into())), Some(3));
        assert_eq!(s.rank("class", &Value::Str("cargo".into())), None);
        assert_eq!(s.rank("window", &Value::Bool(true)), None);
        assert_eq!(s.rank("missing", &Value::Int(1)), None);
    }

    #[test]
    fn strategy_override() {
        let s = PoolSchema::instances("rooms", vec![]).with_strategy(CheckStrategy::Satisfiability);
        assert_eq!(s.strategy, CheckStrategy::Satisfiability);
        assert_eq!(
            PoolSchema::instances("r", vec![]).strategy,
            CheckStrategy::TentativeAllocation
        );
    }
}
