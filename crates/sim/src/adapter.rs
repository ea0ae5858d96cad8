//! Adapter exposing a [`PromiseManager`] through the baseline
//! reserve/consume interface so the same workload drives all systems.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use promises_baselines::{QtyReserver, ReserveFailure, QTY_TABLE};
use promises_core::{
    Environment, PoolSchema, Predicate, PromiseDecision, PromiseError, PromiseId, PromiseManager,
    PromiseRequestSpec, SystemClock,
};
use promises_rm::{ResourceManager, RmError};

/// Promise-manager-backed quantity reservations.
pub struct PromiseQtyReserver {
    pm: Arc<PromiseManager>,
    next_req: AtomicU64,
    /// Promise duration for each reservation.
    pub duration_ms: u64,
}

/// One promise per reserved pool.
#[derive(Debug)]
pub struct PromiseToken {
    holds: Vec<(PromiseId, String, u64)>,
}

impl PromiseQtyReserver {
    /// Wraps an existing manager.
    pub fn new(pm: Arc<PromiseManager>) -> Self {
        Self {
            pm,
            next_req: AtomicU64::new(1),
            duration_ms: 60_000,
        }
    }

    /// The underlying manager (metrics access).
    pub fn manager(&self) -> &Arc<PromiseManager> {
        &self.pm
    }

    fn promise_error(e: PromiseError) -> ReserveFailure {
        match e {
            PromiseError::Rm(RmError::Deadlock { .. }) => ReserveFailure::Deadlock,
            PromiseError::Rm(other) => ReserveFailure::Rm(other),
            PromiseError::ViolationRolledBack { .. } => ReserveFailure::LateConflict,
            _ => ReserveFailure::LateConflict,
        }
    }
}

impl QtyReserver for PromiseQtyReserver {
    type Token = PromiseToken;

    fn reserve(&self, pool: &str, amount: u64) -> Result<Self::Token, ReserveFailure> {
        let mut token = PromiseToken { holds: Vec::new() };
        self.extend(&mut token, pool, amount)?;
        Ok(token)
    }

    fn extend(
        &self,
        token: &mut Self::Token,
        pool: &str,
        amount: u64,
    ) -> Result<(), ReserveFailure> {
        let n = self.next_req.fetch_add(1, Ordering::Relaxed);
        let resp = self
            .pm
            .request(
                PromiseRequestSpec::new(
                    promises_core::RequestId(format!("sim-{n}")),
                    promises_core::ClientId("sim".into()),
                )
                .predicate(Predicate::qty_at_least(pool, amount))
                .duration_ms(self.duration_ms),
            )
            .map_err(Self::promise_error)?;
        match resp.decision {
            PromiseDecision::Granted { promise, .. } => {
                token.holds.push((promise, pool.to_owned(), amount));
                Ok(())
            }
            PromiseDecision::Rejected { .. } => Err(ReserveFailure::Insufficient),
        }
    }

    fn consume(&self, token: Self::Token) -> Result<(), ReserveFailure> {
        let mut env = Environment::none();
        for (id, _, _) in &token.holds {
            env = env.releasing(*id);
        }
        let holds = token.holds.clone();
        self.pm
            .execute(&env, move |rm, txn| {
                for (_, pool, amount) in &holds {
                    rm.update(txn, QTY_TABLE, pool, |rec| {
                        let q = rec.int("qty").unwrap_or(0);
                        rec.set("qty", q - *amount as i64);
                    })
                    .map_err(promises_core::ActionError::from)?;
                }
                Ok(())
            })
            .map(|_| ())
            .map_err(Self::promise_error)
    }

    fn cancel(&self, token: Self::Token) {
        for (id, _, _) in &token.holds {
            let _ = self.pm.release(*id);
        }
    }
}

/// Builds a promise manager with `pools` quantity pools of `qty` each and
/// returns the reserver over it.
pub fn promise_reserver(pools: usize, qty: u64) -> PromiseQtyReserver {
    let rm = Arc::new(ResourceManager::new());
    let pm = Arc::new(PromiseManager::new(rm, Arc::new(SystemClock::new())));
    for i in 0..pools {
        let name = crate::workload::pool_name(i);
        pm.register_pool(PoolSchema::quantity(name.as_str()));
        pm.seed_quantity(name.as_str(), qty)
            .expect("seeding a fresh pool cannot fail");
    }
    PromiseQtyReserver::new(pm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapter_reserve_consume() {
        let r = promise_reserver(2, 10);
        let mut t = r.reserve("pool-0", 4).unwrap();
        r.extend(&mut t, "pool-1", 2).unwrap();
        r.consume(t).unwrap();
        assert_eq!(r.manager().metrics().granted, 2);
        assert_eq!(r.manager().metrics().executions, 1);
        assert_eq!(r.manager().live_count(), 0);
    }

    #[test]
    fn adapter_rejects_fast() {
        let r = promise_reserver(1, 3);
        assert_eq!(
            r.reserve("pool-0", 4).unwrap_err(),
            ReserveFailure::Insufficient
        );
    }

    #[test]
    fn adapter_cancel_releases() {
        let r = promise_reserver(1, 3);
        let t = r.reserve("pool-0", 3).unwrap();
        r.cancel(t);
        assert!(r.reserve("pool-0", 3).is_ok());
    }
}
