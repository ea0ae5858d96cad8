//! Named-instance workloads: concurrent clients reserving and taking
//! specific instances (the §3.2 named view), driven over any
//! [`InstanceReserver`] — the soft-lock baseline or the promise manager.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use promises_baselines::{InstanceReserver, ReserveFailure};
use promises_core::{
    status, Catalog, Environment, PoolSchema, Predicate, PromiseDecision, PromiseError, PromiseId,
    PromiseManager, PromiseRequestSpec, SystemClock,
};
use promises_rm::{Record, ResourceManager, RmError};

use crate::driver::run_workload;
use crate::metrics::RunReport;
use crate::workload::{Op, WorkloadConfig};

/// Name of the instance pool used by instance workloads.
pub const INSTANCE_POOL: &str = "instances";

/// Name of the i-th instance.
pub fn instance_name(i: usize) -> String {
    format!("inst-{i:05}")
}

/// Promise-manager-backed named-instance reservations.
pub struct PromiseInstanceReserver {
    pm: Arc<PromiseManager>,
    next_req: std::sync::atomic::AtomicU64,
    /// Promise duration per reservation.
    pub duration_ms: u64,
}

/// One named-instance promise.
#[derive(Debug)]
pub struct PromiseInstanceToken {
    promise: PromiseId,
    pool: String,
    instance: String,
}

impl PromiseInstanceReserver {
    /// Wraps an existing manager (the pool must be registered).
    pub fn new(pm: Arc<PromiseManager>) -> Self {
        Self {
            pm,
            next_req: std::sync::atomic::AtomicU64::new(1),
            duration_ms: 60_000,
        }
    }

    /// The underlying manager.
    pub fn manager(&self) -> &Arc<PromiseManager> {
        &self.pm
    }
}

impl InstanceReserver for PromiseInstanceReserver {
    type Token = PromiseInstanceToken;

    fn reserve_instance(&self, pool: &str, instance: &str) -> Result<Self::Token, ReserveFailure> {
        let n = self.next_req.fetch_add(1, Ordering::Relaxed);
        let resp = self
            .pm
            .request(
                PromiseRequestSpec::new(
                    promises_core::RequestId(format!("inst-{n}")),
                    promises_core::ClientId("sim".into()),
                )
                .predicate(Predicate::named(pool, instance))
                .duration_ms(self.duration_ms),
            )
            .map_err(|e| match e {
                PromiseError::Rm(RmError::Deadlock { .. }) => ReserveFailure::Deadlock,
                PromiseError::Rm(other) => ReserveFailure::Rm(other),
                _ => ReserveFailure::LateConflict,
            })?;
        match resp.decision {
            PromiseDecision::Granted { promise, .. } => Ok(PromiseInstanceToken {
                promise,
                pool: pool.to_owned(),
                instance: instance.to_owned(),
            }),
            PromiseDecision::Rejected { .. } => Err(ReserveFailure::Insufficient),
        }
    }

    fn consume(&self, token: Self::Token) -> Result<(), ReserveFailure> {
        let table = Catalog::instance_table(&promises_core::PoolId(token.pool.clone()));
        let instance = token.instance.clone();
        self.pm
            .execute(
                &Environment::none().releasing(token.promise),
                move |rm, txn| {
                    rm.update(txn, &table, &instance, |r| {
                        r.set(Catalog::STATUS, status::TAKEN);
                    })
                    .map_err(promises_core::ActionError::from)
                },
            )
            .map(|_| ())
            .map_err(|e| match e {
                PromiseError::Rm(RmError::Deadlock { .. }) => ReserveFailure::Deadlock,
                PromiseError::Rm(other) => ReserveFailure::Rm(other),
                _ => ReserveFailure::LateConflict,
            })
    }

    fn cancel(&self, token: Self::Token) {
        let _ = self.pm.release(token.promise);
    }
}

/// Builds a promise manager with `instances` available instances in
/// [`INSTANCE_POOL`] and returns a reserver over it.
pub fn promise_instance_reserver(instances: usize) -> PromiseInstanceReserver {
    let rm = Arc::new(ResourceManager::new());
    let pm = Arc::new(PromiseManager::new(rm, Arc::new(SystemClock::new())));
    pm.register_pool(PoolSchema::instances(INSTANCE_POOL, vec![]));
    for i in 0..instances {
        pm.seed_instance(INSTANCE_POOL, instance_name(i).as_str(), Record::new())
            .expect("seeding a fresh pool cannot fail");
    }
    PromiseInstanceReserver::new(pm)
}

/// Seeds a bare RM with the same instance layout for the soft-lock
/// baseline (same table naming and `_status` field).
pub fn seed_instances(rm: &ResourceManager, instances: usize) {
    let table = format!("inst:{INSTANCE_POOL}");
    rm.create_table(&table);
    let tx = rm.begin();
    for i in 0..instances {
        let _ = rm.insert(
            &tx,
            &table,
            &instance_name(i),
            Record::new().with("_status", "available"),
        );
    }
    rm.commit(tx).expect("seeding commit");
}

/// Runs a reserve–think–take workload over named instances: each client
/// repeatedly picks an instance (hotspot-skewed towards low indices),
/// reserves it, thinks, then takes or abandons it. `instances` bounds the
/// identifier space; contention comes from collisions on the same names.
pub fn run_instance_workload<R>(
    reserver: Arc<R>,
    cfg: &WorkloadConfig,
    instances: usize,
) -> RunReport
where
    R: InstanceReserver + Send + Sync + 'static,
{
    // Map the generated pool/amount onto an instance index: hotspot ops
    // hit the low indices.
    let reserve = |client: usize, i: usize, op: &Op| {
        let idx = if op.pools[0] == 0 {
            (client + i) % (instances / 4).max(1)
        } else {
            (client * 31 + i * 7) % instances
        };
        reserver.reserve_instance(INSTANCE_POOL, &instance_name(idx))
    };
    run_workload(
        cfg,
        reserve,
        |token| reserver.cancel(token),
        |token| reserver.consume(token),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use promises_baselines::SoftLockReserver;
    use std::time::Duration;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            clients: 4,
            ops_per_client: 15,
            pools: 2,
            hotspot_probability: 0.5,
            zipf_exponent: 0.0,
            amount_max: 1,
            think: Duration::from_micros(200),
            real_time_think: true,
            abandon_probability: 0.2,
            multi_pool: false,
            pinned_pools: false,
            seed: 11,
        }
    }

    #[test]
    fn promise_instance_workload_is_consistent() {
        const N: usize = 40;
        let r = Arc::new(promise_instance_reserver(N));
        let pm = Arc::clone(r.manager());
        let report = run_instance_workload(r, &cfg(), N);
        assert!(report.completed > 0);
        assert_eq!(pm.live_count(), 0, "no leaked promises");
        // Taken instances equal completed operations.
        let rm = pm.rm();
        let txn = rm.begin();
        let taken = rm
            .scan(&txn, &format!("inst:{INSTANCE_POOL}"))
            .unwrap()
            .iter()
            .filter(|(_, rec)| rec.str("_status") == Some("taken"))
            .count() as u64;
        rm.commit(txn).unwrap();
        assert_eq!(taken, report.completed);
    }

    #[test]
    fn soft_lock_instance_workload_is_consistent() {
        const N: usize = 40;
        let rm = Arc::new(ResourceManager::new());
        seed_instances(&rm, N);
        let report =
            run_instance_workload(Arc::new(SoftLockReserver::new(Arc::clone(&rm))), &cfg(), N);
        assert!(report.completed > 0);
        let txn = rm.begin();
        let taken = rm
            .scan(&txn, &format!("inst:{INSTANCE_POOL}"))
            .unwrap()
            .iter()
            .filter(|(_, rec)| rec.str("_status") == Some("taken"))
            .count() as u64;
        rm.commit(txn).unwrap();
        assert_eq!(taken, report.completed);
    }

    #[test]
    fn both_systems_admit_comparably_on_the_same_workload() {
        // Soft locks are the §5 "allocated tags" technique without a
        // manager; on a pure named-view workload (no rogue writers) the
        // two admit the same operations.
        const N: usize = 40;
        let r = Arc::new(promise_instance_reserver(N));
        let promises = run_instance_workload(r, &cfg(), N);

        let rm = Arc::new(ResourceManager::new());
        seed_instances(&rm, N);
        let soft =
            run_instance_workload(Arc::new(SoftLockReserver::new(Arc::clone(&rm))), &cfg(), N);
        assert_eq!(promises.attempts, soft.attempts);
        // Identical deterministic workloads; small divergence possible only
        // from scheduling (both must stay in the same ballpark).
        let diff = promises.completed.abs_diff(soft.completed);
        assert!(
            diff <= promises.attempts / 5,
            "promises={} soft={}",
            promises.completed,
            soft.completed
        );
    }
}
