//! The pool catalog: registered schemas and their resource-manager layout.
//!
//! Physical layout conventions:
//!
//! * quantity pools live in one table, [`Catalog::QTY_TABLE`], keyed by
//!   pool name, with an integer `qty` field (the "quantity on hand" /
//!   "account balance" attribute of §3.1); a pool leased to a cluster
//!   shard carries a second integer field, [`Catalog::LEASE`], the units
//!   of the cluster-wide total moved to this shard, net of moves;
//! * each instance pool gets its own table `inst:<pool>`, keyed by
//!   instance id; every record carries the reserved status field
//!   [`Catalog::STATUS`] with value `available` or `taken`. That is
//!   application state only: which live promise holds an instance is
//!   what the promise records' allocations say (§5's allocated tags), and
//!   nothing in the resource manager repeats it.

use std::collections::HashMap;

use promises_rm::{Record, ResourceManager, Txn};

use crate::error::PromiseError;
use crate::ids::{InstanceId, PoolId};
use crate::schema::{PoolKind, PoolSchema};

/// Instance availability states stored in the [`Catalog::STATUS`] field.
pub mod status {
    /// Not consumed: free for promising and taking, unless a live
    /// promise's allocations hold it.
    pub const AVAILABLE: &str = "available";
    /// Consumed; permanently excluded from all checks.
    pub const TAKEN: &str = "taken";
}

/// Registered pools and their schemas.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    pools: HashMap<PoolId, PoolSchema>,
}

impl Catalog {
    /// The table holding all quantity pools.
    pub const QTY_TABLE: &'static str = "qty_pools";
    /// Reserved status field on instance records.
    pub const STATUS: &'static str = "_status";
    /// A leased quantity pool's lease field: the units moved to this
    /// shard, net of moves. Sales change only `qty`, so what the shard
    /// has consumed is `lease − qty`.
    pub const LEASE: &'static str = "lease";

    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name of the RM table backing an instance pool.
    pub fn instance_table(pool: &PoolId) -> String {
        format!("inst:{pool}")
    }

    /// Registers a pool schema and creates its backing table(s).
    pub fn register(&mut self, rm: &ResourceManager, schema: PoolSchema) {
        match schema.kind {
            PoolKind::Quantity => rm.create_table(Self::QTY_TABLE),
            PoolKind::Instances => rm.create_table(&Self::instance_table(&schema.id)),
        }
        self.pools.insert(schema.id.clone(), schema);
    }

    /// Looks up a pool schema.
    pub fn get(&self, pool: &PoolId) -> Result<&PoolSchema, PromiseError> {
        self.pools
            .get(pool)
            .ok_or_else(|| PromiseError::UnknownPool(pool.clone()))
    }

    /// True if the pool is registered.
    pub fn contains(&self, pool: &PoolId) -> bool {
        self.pools.contains_key(pool)
    }

    /// Sets the quantity on hand for a quantity pool (setup/admin path;
    /// creates the record if missing).
    pub fn set_quantity(
        &self,
        rm: &ResourceManager,
        txn: &Txn,
        pool: &PoolId,
        qty: u64,
    ) -> Result<(), PromiseError> {
        let schema = self.get(pool)?;
        debug_assert_eq!(schema.kind, PoolKind::Quantity);
        rm.put(
            txn,
            Self::QTY_TABLE,
            &pool.0,
            Record::new().with("qty", qty as i64),
        )?;
        Ok(())
    }

    /// Reads the quantity on hand for a quantity pool (0 if unset).
    pub fn quantity(
        &self,
        rm: &ResourceManager,
        txn: &Txn,
        pool: &PoolId,
    ) -> Result<u64, PromiseError> {
        Ok(self.qty_field(rm, txn, pool, "qty")?.unwrap_or(0))
    }

    /// Reads field `name` of a quantity pool's row (`None` if unset):
    /// `qty`, or [`Catalog::LEASE`].
    pub fn qty_field(
        &self,
        rm: &ResourceManager,
        txn: &Txn,
        pool: &PoolId,
        name: &str,
    ) -> Result<Option<u64>, PromiseError> {
        self.get(pool)?;
        let field = rm.get_with(txn, Self::QTY_TABLE, &pool.0, |rec| rec?.int(name))?;
        Ok(field.map(|v| v.max(0) as u64))
    }

    /// Adds an instance to an instance pool with the given properties and
    /// status `available`.
    pub fn add_instance(
        &self,
        rm: &ResourceManager,
        txn: &Txn,
        pool: &PoolId,
        id: &InstanceId,
        mut properties: Record,
    ) -> Result<(), PromiseError> {
        let schema = self.get(pool)?;
        debug_assert_eq!(schema.kind, PoolKind::Instances);
        properties.set(Self::STATUS, status::AVAILABLE);
        rm.insert(txn, &Self::instance_table(pool), &id.0, properties)?;
        Ok(())
    }

    /// Reads one instance record.
    pub fn instance(
        &self,
        rm: &ResourceManager,
        txn: &Txn,
        pool: &PoolId,
        id: &InstanceId,
    ) -> Result<Option<Record>, PromiseError> {
        self.get(pool)?;
        Ok(rm.get(txn, &Self::instance_table(pool), &id.0)?)
    }

    /// Lends every instance of a pool to `f` as `(id, record)`, in id
    /// order, under the rules of [`ResourceManager::scan_with`]: `f` must
    /// not call the resource manager.
    pub fn scan_instances(
        &self,
        rm: &ResourceManager,
        txn: &Txn,
        pool: &PoolId,
        f: impl FnMut(&str, &Record),
    ) -> Result<(), PromiseError> {
        self.get(pool)?;
        Ok(rm.scan_with(txn, &Self::instance_table(pool), f)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::PropertyDef;
    use promises_rm::ResourceManager;

    fn setup() -> (ResourceManager, Catalog) {
        let rm = ResourceManager::new();
        let mut cat = Catalog::new();
        cat.register(&rm, PoolSchema::quantity("widgets"));
        cat.register(
            &rm,
            PoolSchema::instances("rooms", vec![PropertyDef::plain("floor")]),
        );
        (rm, cat)
    }

    #[test]
    fn quantity_roundtrip() {
        let (rm, cat) = setup();
        let pool = PoolId::from("widgets");
        let tx = rm.begin();
        assert_eq!(cat.quantity(&rm, &tx, &pool).unwrap(), 0, "unset reads 0");
        cat.set_quantity(&rm, &tx, &pool, 42).unwrap();
        assert_eq!(cat.quantity(&rm, &tx, &pool).unwrap(), 42);
        rm.commit(tx).unwrap();
    }

    #[test]
    fn instance_lifecycle() {
        let (rm, cat) = setup();
        let pool = PoolId::from("rooms");
        let id = InstanceId::from("512");
        let tx = rm.begin();
        cat.add_instance(&rm, &tx, &pool, &id, Record::new().with("floor", 5i64))
            .unwrap();
        let rec = cat.instance(&rm, &tx, &pool, &id).unwrap().unwrap();
        assert_eq!(rec.str(Catalog::STATUS), Some(status::AVAILABLE));
        assert_eq!(rec.int("floor"), Some(5));
        let mut seen = Vec::new();
        cat.scan_instances(&rm, &tx, &pool, |id, _| seen.push(id.to_owned()))
            .unwrap();
        assert_eq!(seen, vec!["512"]);
        rm.commit(tx).unwrap();
    }

    #[test]
    fn unknown_pool_is_an_error() {
        let (rm, cat) = setup();
        let tx = rm.begin();
        let missing = PoolId::from("nope");
        assert!(matches!(
            cat.quantity(&rm, &tx, &missing),
            Err(PromiseError::UnknownPool(_))
        ));
        rm.commit(tx).unwrap();
        assert!(!cat.contains(&missing));
        assert!(cat.contains(&PoolId::from("widgets")));
    }
}
