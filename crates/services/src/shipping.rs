//! Next-day shipping promises (§7, second example) with §5 delegation.
//!
//! "The order process asks the promise manager for the shipping component
//! for a promise of next day delivery, with the predicate making no
//! assumptions about how this promise will be implemented ... The
//! merchant may even have a number of shipping alternatives available
//! ... This flexibility is not visible to the order process or the
//! customer."
//!
//! The shipping component's capacity is an opaque quantity pool; when the
//! component itself outsources to a carrier, its promise manager
//! *delegates* the carrier pool upstream — "a purchase order can be
//! accepted by the merchant if it has received a promise from the
//! distributor that a backorder will be fulfilled on time" (§5).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use promises_core::{
    Catalog, Environment, PoolSchema, Predicate, PromiseDecision, PromiseError, PromiseId,
    PromiseManager, PromiseRequestSpec, RejectReason,
};

/// Pool name the shipping service uses for delegated carrier capacity.
pub const CARRIER_POOL: &str = "carrier-capacity";

/// Local shipping capacity pool (per service instance).
pub const SHIPPING_POOL: &str = "shipping-slots";

/// The shipping component.
pub struct Shipping {
    pm: Arc<PromiseManager>,
    next_req: AtomicU64,
    /// Whether next-day promises additionally require delegated carrier
    /// capacity (one unit per shipment).
    uses_carrier: bool,
}

impl Shipping {
    /// Creates a shipping service with `slots` units of its own next-day
    /// capacity.
    pub fn new(pm: Arc<PromiseManager>, slots: u64) -> Result<Self, PromiseError> {
        pm.register_pool(PoolSchema::quantity(SHIPPING_POOL));
        pm.seed_quantity(SHIPPING_POOL, slots)?;
        Ok(Self {
            pm,
            next_req: AtomicU64::new(1),
            uses_carrier: false,
        })
    }

    /// Routes one unit of carrier capacity per shipment to an upstream
    /// carrier's promise manager (delegation). The upstream manager must
    /// have a quantity pool named [`CARRIER_POOL`], and must not delegate
    /// it back to this service.
    pub fn with_carrier(mut self, carrier: Arc<PromiseManager>) -> Result<Self, PromiseError> {
        self.pm.delegate_pool(CARRIER_POOL, carrier)?;
        self.uses_carrier = true;
        Ok(self)
    }

    /// The promise manager this service uses.
    pub fn manager(&self) -> &Arc<PromiseManager> {
        &self.pm
    }

    /// Promises next-day delivery for one shipment.
    pub fn promise_next_day(
        &self,
        client: &str,
        duration_ms: u64,
    ) -> Result<Result<PromiseId, RejectReason>, PromiseError> {
        let n = self.next_req.fetch_add(1, Ordering::Relaxed);
        let mut spec = PromiseRequestSpec::new(
            promises_core::RequestId(format!("ship-{n}")),
            promises_core::ClientId(client.to_owned()),
        )
        .predicate(Predicate::qty_at_least(SHIPPING_POOL, 1))
        .duration_ms(duration_ms);
        if self.uses_carrier {
            spec = spec.predicate(Predicate::qty_at_least(CARRIER_POOL, 1));
        }
        let resp = self.pm.request(spec)?;
        Ok(match resp.decision {
            PromiseDecision::Granted { promise, .. } => Ok(promise),
            PromiseDecision::Rejected { reason } => Err(reason),
        })
    }

    /// Ships under a next-day promise, consuming one capacity slot and
    /// releasing the promise.
    pub fn ship(&self, promise: PromiseId) -> Result<(), PromiseError> {
        self.pm
            .execute(&Environment::none().releasing(promise), |rm, txn| {
                rm.update(txn, Catalog::QTY_TABLE, SHIPPING_POOL, |r| {
                    let q = r.int("qty").unwrap_or(0);
                    r.set("qty", q - 1);
                })
                .map_err(promises_core::ActionError::from)
            })
    }

    /// Remaining local capacity.
    pub fn capacity(&self) -> Result<u64, PromiseError> {
        let rm = self.pm.rm();
        let txn = rm.begin();
        let v = rm
            .get(&txn, Catalog::QTY_TABLE, SHIPPING_POOL)?
            .and_then(|r| r.int("qty"))
            .map(|v| v.max(0) as u64)
            .unwrap_or(0);
        rm.commit(txn)?;
        Ok(v)
    }
}

/// Builds a standalone carrier (upstream delegate) with the given
/// capacity, on its own resource manager and clock.
pub fn standalone_carrier(capacity: u64) -> Arc<PromiseManager> {
    use promises_core::SystemClock;
    use promises_rm::ResourceManager;
    let pm = Arc::new(PromiseManager::new(
        Arc::new(ResourceManager::new()),
        Arc::new(SystemClock::new()),
    ));
    pm.register_pool(PoolSchema::quantity(CARRIER_POOL));
    pm.seed_quantity(CARRIER_POOL, capacity)
        .expect("seeding a fresh carrier cannot fail");
    pm
}

#[cfg(test)]
mod tests {
    use super::*;
    use promises_core::SystemClock;
    use promises_rm::ResourceManager;

    fn pm() -> Arc<PromiseManager> {
        Arc::new(PromiseManager::new(
            Arc::new(ResourceManager::new()),
            Arc::new(SystemClock::new()),
        ))
    }

    #[test]
    fn local_capacity_promises() {
        let s = Shipping::new(pm(), 2).unwrap();
        let p1 = s.promise_next_day("a", 60_000).unwrap().unwrap();
        let _p2 = s.promise_next_day("b", 60_000).unwrap().unwrap();
        assert!(s.promise_next_day("c", 60_000).unwrap().is_err());
        s.ship(p1).unwrap();
        assert_eq!(s.capacity().unwrap(), 1);
        // Shipping released one slot's promise but consumed the slot:
        // still no room for a third client.
        assert!(s.promise_next_day("c", 60_000).unwrap().is_err());
    }

    #[test]
    fn delegated_carrier_capacity_bounds_promises() {
        let carrier = standalone_carrier(1);
        let s = Shipping::new(pm(), 10)
            .unwrap()
            .with_carrier(Arc::clone(&carrier))
            .unwrap();
        let p1 = s.promise_next_day("a", 60_000).unwrap().unwrap();
        assert_eq!(carrier.live_count(), 1);
        // Plenty of local slots, but the carrier is exhausted.
        let reason = s.promise_next_day("b", 60_000).unwrap().unwrap_err();
        assert!(matches!(reason, RejectReason::UpstreamRejected { .. }));
        s.ship(p1).unwrap();
        assert_eq!(carrier.live_count(), 0, "carrier promise released");
        let _p2 = s.promise_next_day("b", 60_000).unwrap().unwrap();
    }

    #[test]
    fn chained_delegation() {
        // merchant-shipping → regional carrier → national carrier.
        let national = standalone_carrier(1);
        let regional = standalone_carrier(100);
        regional
            .delegate_pool("national-capacity", Arc::clone(&national))
            .unwrap();
        // The regional's next-day promise needs national capacity too:
        // model by asking regional for both pools via a shipping facade.
        let s = Shipping::new(pm(), 10)
            .unwrap()
            .with_carrier(Arc::clone(&regional))
            .unwrap();
        let _p = s.promise_next_day("a", 60_000).unwrap().unwrap();
        assert_eq!(regional.live_count(), 1);
    }
}
