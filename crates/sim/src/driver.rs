//! The concurrent workload driver.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use promises_baselines::{QtyReserver, ReserveFailure, QTY_FIELD, QTY_TABLE, RESERVED_FIELD};
use promises_rm::{Record, ResourceManager};

use crate::metrics::{Counters, RunReport};
use crate::workload::{pool_name, Op, WorkloadConfig};

/// Creates `pools` quantity pools of `qty` units each in `rm` using the
/// shared table layout (with an escrow `reserved` field initialised to 0).
pub fn seed_pools(rm: &ResourceManager, pools: usize, qty: u64) {
    rm.create_table(QTY_TABLE);
    let tx = rm.begin();
    for i in 0..pools {
        let _ = rm.insert(
            &tx,
            QTY_TABLE,
            &pool_name(i),
            Record::new()
                .with(QTY_FIELD, qty as i64)
                .with(RESERVED_FIELD, 0i64),
        );
    }
    rm.commit(tx).expect("seeding commit");
}

/// Runs the reserve–think–consume workload over any [`QtyReserver`] with
/// `cfg.clients` concurrent threads and returns the aggregated report.
///
/// Each client walks its generated op stream. Per operation: reserve each
/// pool in the op (the first via [`QtyReserver::reserve`], the rest via
/// [`QtyReserver::extend`], a failed extension cancelling what is held),
/// hold through the think time (the "long-running operation" of the
/// paper), then consume or — for abandoned ops — cancel. The failure
/// taxonomy is tallied into one [`RunReport`].
pub fn run_qty_workload<R>(reserver: Arc<R>, cfg: &WorkloadConfig) -> RunReport
where
    R: QtyReserver + Send + Sync + 'static,
{
    let reserve = |op: &Op| {
        let mut token = reserver.reserve(&pool_name(op.pools[0]), op.amount)?;
        for &pool in &op.pools[1..] {
            if let Err(e) = reserver.extend(&mut token, &pool_name(pool), op.amount) {
                reserver.cancel(token);
                return Err(e);
            }
        }
        Ok(token)
    };
    let counters = Counters::default();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..cfg.clients {
            let (counters, reserver, reserve) = (&counters, &reserver, &reserve);
            let ops = cfg.ops_for_client(client);
            let think = cfg.think;
            let real_think = cfg.real_time_think;
            // Virtual think (the default) skips the sleep but still folds
            // the think duration into latencies recorded past the hold
            // window, so reported latency keeps its meaning.
            let vthink = if real_think { Duration::ZERO } else { think };
            scope.spawn(move || {
                for op in &ops {
                    counters.attempts.fetch_add(1, Ordering::Relaxed);
                    let op_start = Instant::now();
                    let token = match reserve(op) {
                        Ok(token) => token,
                        Err(e) => {
                            count_failure(counters, &e, op_start.elapsed());
                            continue;
                        }
                    };
                    if real_think && !think.is_zero() {
                        std::thread::sleep(think);
                    }
                    if op.abandon {
                        reserver.cancel(token);
                        counters.abandoned.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    match reserver.consume(token) {
                        Ok(()) => counters.succeeded(op_start.elapsed() + vthink),
                        Err(e) => count_failure(counters, &e, op_start.elapsed() + vthink),
                    }
                }
            });
        }
    });
    counters.report(start.elapsed())
}

fn count_failure(counters: &Counters, e: &ReserveFailure, elapsed: Duration) {
    match e {
        ReserveFailure::Insufficient => counters.failed_fast.fetch_add(1, Ordering::Relaxed),
        ReserveFailure::LateConflict => counters.failed_late.fetch_add(1, Ordering::Relaxed),
        ReserveFailure::Deadlock => counters.deadlocks.fetch_add(1, Ordering::Relaxed),
        ReserveFailure::Rm(_) => counters.errors.fetch_add(1, Ordering::Relaxed),
    };
    counters.failed_op(elapsed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::promise_reserver;
    use promises_baselines::{EscrowReserver, LockReserver, OptimisticReserver};
    use std::time::Duration;

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            clients: 4,
            ops_per_client: 10,
            pools: 2,
            hotspot_probability: 0.5,
            zipf_exponent: 0.0,
            amount_max: 2,
            think: Duration::from_micros(200),
            real_time_think: true,
            abandon_probability: 0.1,
            multi_pool: false,
            pinned_pools: false,
            seed: 7,
        }
    }

    fn final_qty(rm: &ResourceManager, pools: usize) -> i64 {
        let tx = rm.begin();
        let mut total = 0;
        for i in 0..pools {
            total += rm
                .get(&tx, QTY_TABLE, &pool_name(i))
                .unwrap()
                .unwrap()
                .int(QTY_FIELD)
                .unwrap();
        }
        rm.commit(tx).unwrap();
        total
    }

    #[test]
    fn escrow_workload_conserves_stock() {
        let rm = Arc::new(ResourceManager::new());
        seed_pools(&rm, 2, 1_000);
        let report = run_qty_workload(Arc::new(EscrowReserver::new(Arc::clone(&rm))), &small_cfg());
        assert_eq!(report.attempts, 40);
        let consumed = 2_000 - final_qty(&rm, 2);
        assert!(consumed >= 0);
        assert!(report.completed > 0);
    }

    #[test]
    fn lock_workload_completes() {
        let rm = Arc::new(ResourceManager::new());
        seed_pools(&rm, 2, 1_000);
        let report = run_qty_workload(Arc::new(LockReserver::new(Arc::clone(&rm))), &small_cfg());
        assert!(report.completed > 0);
    }

    #[test]
    fn optimistic_workload_completes() {
        let rm = Arc::new(ResourceManager::new());
        seed_pools(&rm, 2, 1_000);
        let report = run_qty_workload(
            Arc::new(OptimisticReserver::new(Arc::clone(&rm))),
            &small_cfg(),
        );
        assert!(report.completed > 0);
    }

    #[test]
    fn promise_workload_completes_and_frees_all_promises() {
        let r = Arc::new(promise_reserver(2, 1_000));
        let pm = Arc::clone(r.manager());
        let report = run_qty_workload(r, &small_cfg());
        assert!(report.completed > 0);
        assert_eq!(pm.live_count(), 0, "every promise released");
    }

    #[test]
    fn multi_pool_lock_workload_detects_deadlocks_not_hangs() {
        let rm = Arc::new(ResourceManager::new());
        seed_pools(&rm, 2, 100_000);
        let cfg = WorkloadConfig {
            multi_pool: true,
            clients: 8,
            ops_per_client: 20,
            pools: 2,
            think: Duration::from_micros(500),
            abandon_probability: 0.0,
            ..small_cfg()
        };
        let report = run_qty_workload(Arc::new(LockReserver::new(Arc::clone(&rm))), &cfg);
        // The run terminates (no hang) and conflicting orders surfaced as
        // deadlock aborts.
        assert!(report.completed + report.deadlocks + report.failed_fast > 0);
        assert!(report.deadlocks > 0, "opposite-order clients must deadlock");
    }

    #[test]
    fn virtual_think_skips_wall_clock_but_counts_in_latency() {
        let think = Duration::from_millis(20);
        let cfg = WorkloadConfig {
            clients: 4,
            ops_per_client: 10,
            think,
            real_time_think: false,
            abandon_probability: 0.0,
            ..small_cfg()
        };
        let r = Arc::new(promise_reserver(2, 100_000));
        let start = Instant::now();
        let report = run_qty_workload(r, &cfg);
        // 4 clients × 10 ops × 20ms of think would be 200ms of sleeping
        // per client; virtual time must finish far under that.
        assert!(
            start.elapsed() < Duration::from_millis(150),
            "virtual think must not sleep: {:?}",
            start.elapsed()
        );
        assert_eq!(report.completed, 40);
        let avg = report.avg_latency.expect("completed ops recorded");
        assert!(avg >= think, "think counts toward latency: {avg:?}");
    }

    #[test]
    fn multi_pool_promises_never_deadlock() {
        let r = Arc::new(promise_reserver(2, 100_000));
        let cfg = WorkloadConfig {
            multi_pool: true,
            clients: 8,
            ops_per_client: 20,
            pools: 2,
            think: Duration::from_micros(500),
            abandon_probability: 0.0,
            ..small_cfg()
        };
        let report = run_qty_workload(r, &cfg);
        assert_eq!(report.deadlocks, 0, "promise layer never blocks requesters");
        assert_eq!(report.completed, 8 * 20);
    }
}
