//! The travel-booking scenario: §4's flight + hotel + car bookings run as
//! a production workload across a three-shard cluster, under wire faults.
//!
//! Each booking is one atomic multi-predicate promise whose resources
//! deliberately live on *different* shards — flight seats on one, rental
//! cars on another, the room instance pool on a third — so every booking
//! exercises the coordinator's cross-shard two-phase grant. The room leg
//! carries an essential-vs-desirable predicate (`beds == 2`, desirably
//! with a view); when view rooms run out the coordinator walks the §3.3
//! weakening ladder ([`Coordinator::grant_negotiated`]) and the customer
//! gets a cleanly negotiated-down booking instead of a refusal.
//!
//! Two routes share the cluster:
//!
//! * **route A (direct)** — bookings go through the coordinator over the
//!   wire, where the fault injector drops, duplicates and delays
//!   messages; callers retry transport failures with the *same* request
//!   id, leaning on end-to-end deduplication;
//! * **route B (delegated)** — bookings go through a [`BookingDesk`]: an
//!   edge promise manager with only a local voucher pool, §5-delegating
//!   the flight and car pools to the shard managers that own them, so the
//!   delegation chain (acquire upstream, compensate on failure, cascade
//!   on release) runs under the same cluster load.
//!
//! Route-A bookings go through [`ClientRun::step`], a transport retry
//! replacing the failed attempt's record, and after the run the one
//! cluster audit judges the invariants the paper stakes out: no partial
//! grants (on the rung granted and every rung below it), no double grants,
//! no oversells, no leaks, and bounded state.

use std::sync::Arc;

use promises_cluster::{CoordError, PoolSeed, PromiseCluster};
use promises_core::{InstanceId, PoolSchema, PromiseManager, PropertyDef};
use promises_faults::{FaultInjector, FaultScenario};
use promises_rm::{Record, ResourceManager};
use promises_services::BookingDesk;
use rand::{rngs::StdRng, RngCore, SeedableRng};

use crate::audit::{audit_cluster, ClusterAudit};
use crate::clients::{ClientOp, ClientRun, Release};
use crate::openloop::{run_open_loop, OpStatus, OpenLoopConfig, OpenLoopReport};

const FLIGHT_POOL: &str = "flight-seats";
const CAR_POOL: &str = "rental-cars";
const ROOM_POOL: &str = "travel-rooms";

/// One booking: a flight seat, a car, and a twin-bed room — desirably
/// with a view, the one clause the §3.3 ladder may drop.
pub(crate) const BOOKING: [&str; 3] = [
    "qty('flight-seats') >= 1",
    "qty('rental-cars') >= 1",
    "prop('travel-rooms'): beds == 2 && desirable(view == true)",
];

/// Hosts the twin-bed room instance pool on the cluster's next round-robin
/// shard: `rooms` rooms, the first `view_rooms` with a view.
pub(crate) fn host_rooms(cluster: &PromiseCluster, rooms: usize, view_rooms: usize) {
    let shard = cluster.map.assign_round_robin(ROOM_POOL);
    let props = vec![PropertyDef::plain("beds"), PropertyDef::plain("view")];
    let records = (0..rooms)
        .map(|i| {
            let room = Record::new()
                .with("beds", 2i64)
                .with("view", i < view_rooms);
            (InstanceId(format!("room-{i}")), room)
        })
        .collect();
    cluster.nodes[shard].host(
        PoolSchema::instances(ROOM_POOL, props),
        PoolSeed::Instances(records),
    );
}

/// Shape of one travel-booking run (one fault rate).
#[derive(Debug, Clone)]
pub struct TravelConfig {
    /// Master seed.
    pub seed: u64,
    /// Uniform wire-fault rate (drop/duplicate/delay), 0.0..1.0.
    pub fault_rate: f64,
    /// Bookings to offer.
    pub ops: usize,
    /// Fraction routed through the delegated booking desk (route B).
    pub desk_fraction: f64,
    /// Probability a granted direct booking is *kept* (held to expiry)
    /// rather than travelled-and-released; kept bookings consume view
    /// rooms and force later bookings down the negotiation ladder.
    pub keep_probability: f64,
    /// Rooms seeded (all twin-bed; a small minority with a view).
    pub rooms: usize,
    /// How many of the rooms have a view.
    pub view_rooms: usize,
    /// Workload-level retries for coordinator transport failures (same
    /// request id each time).
    pub transport_retries: usize,
    /// Offered arrival rate for the generator, ops/s of virtual time.
    pub offered_rate: f64,
    /// Bounded in-flight concurrency for the generator.
    pub max_in_flight: usize,
}

impl Default for TravelConfig {
    fn default() -> Self {
        Self {
            seed: 2007,
            fault_rate: 0.0,
            ops: 240,
            desk_fraction: 0.3,
            keep_probability: 0.08,
            rooms: 48,
            view_rooms: 3,
            transport_retries: 3,
            offered_rate: 1_500.0,
            max_in_flight: 8,
        }
    }
}

/// Outcome of one travel-booking run.
#[derive(Debug, Clone)]
pub struct TravelReport {
    /// The open-loop report (completed = granted or negotiated-down).
    pub open_loop: OpenLoopReport,
    /// Bookings granted exactly as asked (view room and all).
    pub granted_full: u64,
    /// Bookings granted after dropping the desirable view clause.
    pub negotiated_down: u64,
    /// Route-B bookings completed through the delegation chain.
    pub desk_completed: u64,
    /// Bookings cleanly rejected (essential clauses could not hold).
    pub rejected: u64,
    /// Bookings lost to transport failures after retries.
    pub transport_failures: u64,
    /// The end-of-run audit.
    pub audit: ClusterAudit,
}

impl TravelReport {
    /// Completed bookings: granted as asked or cleanly negotiated down.
    pub fn completed(&self) -> u64 {
        self.granted_full + self.negotiated_down + self.desk_completed
    }

    /// Completed fraction of offered bookings.
    pub fn completion_ratio(&self) -> f64 {
        if self.open_loop.offered == 0 {
            return 0.0;
        }
        self.completed() as f64 / self.open_loop.offered as f64
    }
}

/// Runs one travel-booking workload at the configured fault rate and
/// audits the cluster afterwards.
pub fn run_travel_booking(cfg: &TravelConfig) -> TravelReport {
    let cluster = PromiseCluster::build(3, cfg.seed);

    // Flight seats and rental cars are quantity pools on shards 0 and 1;
    // the room instance pool is hosted manually on the next round-robin
    // shard (2), giving every booking three cross-shard legs.
    let flight_shard = cluster.register_quantity_pool(FLIGHT_POOL, 100_000);
    let car_shard = cluster.register_quantity_pool(CAR_POOL, 100_000);
    host_rooms(&cluster, cfg.rooms, cfg.view_rooms);

    // Route B: an edge desk whose flight and car legs are §5 delegations
    // straight at the owning shard managers.
    let desk_pm = Arc::new(PromiseManager::new(
        Arc::new(ResourceManager::new()),
        Arc::clone(&cluster.clock) as Arc<dyn promises_core::Clock>,
    ));
    let desk = BookingDesk::new(desk_pm, 1_000_000).expect("desk");
    for (pool, shard) in [(FLIGHT_POOL, flight_shard), (CAR_POOL, car_shard)] {
        desk.delegate(pool, Arc::clone(&cluster.nodes[shard].pm))
            .expect("a shard manager delegates nothing");
    }

    if cfg.fault_rate > 0.0 {
        cluster
            .bus
            .set_fault_injector(Some(Arc::new(FaultInjector::new(FaultScenario::uniform(
                cfg.seed,
                cfg.fault_rate,
            )))));
    }

    let legs = vec![(FLIGHT_POOL.to_owned(), 1), (CAR_POOL.to_owned(), 1)];

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7AB1);
    let mut run = ClientRun::default();
    let mut granted_full = 0u64;
    let mut negotiated_down = 0u64;
    let mut desk_completed = 0u64;
    let mut rejected = 0u64;
    let mut transport_failures = 0u64;

    let gen_cfg = OpenLoopConfig {
        offered_rate: cfg.offered_rate,
        ops: cfg.ops,
        max_in_flight: cfg.max_in_flight,
        seed: cfg.seed,
    };
    let open_loop = run_open_loop(&gen_cfg, |i| {
        let unit = |rng: &mut StdRng| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let client = format!("traveller-{}", i % 48);
        if unit(&mut rng) < cfg.desk_fraction {
            // Route B: delegated desk booking, travelled and released so
            // the desk's own books stay clean (its promises never expire
            // with the cluster clock advance).
            match desk.book(&client, &format!("trip-desk-{i}"), &legs, 600_000) {
                Ok(Ok(booking)) => {
                    desk.cancel(booking).expect("cancel desk booking");
                    desk_completed += 1;
                    OpStatus::Ok
                }
                Ok(Err(_)) => {
                    rejected += 1;
                    OpStatus::Rejected
                }
                Err(_) => OpStatus::Failed,
            }
        } else {
            // Route A: direct cross-shard booking over the faulty wire;
            // transport failures retry under the same request id.
            let op = ClientOp {
                rid: format!("trip-{i}"),
                predicates: BOOKING.map(String::from).to_vec(),
                release: Release::Keep(cfg.keep_probability),
            };
            let mut attempts = 0;
            loop {
                match run.step(&cluster, &mut rng, &client, op.clone()) {
                    Ok(grant) if grant.decision.is_granted() => {
                        match grant.dropped {
                            0 => granted_full += 1,
                            _ => negotiated_down += 1,
                        }
                        break OpStatus::Ok;
                    }
                    Ok(_) => {
                        rejected += 1;
                        break OpStatus::Rejected;
                    }
                    Err(CoordError::Transport(_)) if attempts < cfg.transport_retries => {
                        attempts += 1;
                    }
                    Err(_) => {
                        transport_failures += 1;
                        break OpStatus::Failed;
                    }
                }
            }
        }
    });

    TravelReport {
        open_loop,
        granted_full,
        negotiated_down,
        desk_completed,
        rejected,
        transport_failures,
        audit: audit_cluster(&cluster, &run),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_run_completes_and_negotiates_down() {
        let report = run_travel_booking(&TravelConfig::default());
        assert!(
            report.completion_ratio() >= 0.95,
            "completion {:.3} (full {} negotiated {} desk {} rejected {} transport {})",
            report.completion_ratio(),
            report.granted_full,
            report.negotiated_down,
            report.desk_completed,
            report.rejected,
            report.transport_failures,
        );
        assert!(
            report.negotiated_down > 0,
            "kept bookings must exhaust view rooms and force the ladder"
        );
        assert!(report.desk_completed > 0, "route B must carry traffic");
        assert!(report.audit.clean(), "{report:?}");
    }

    /// The rooms shard comes back from its own restart, and from a
    /// promotion over fresh storage, hosting every room it was given: the
    /// held room stays held, every other room is listed free, and the
    /// next trip books.
    #[test]
    fn the_rooms_shard_survives_restart_and_promotion() {
        for promote in [false, true] {
            let mut cluster = PromiseCluster::build(3, 7);
            cluster.register_quantity_pool(FLIGHT_POOL, 10);
            cluster.register_quantity_pool(CAR_POOL, 10);
            host_rooms(&cluster, 6, 2);
            if promote {
                cluster.enable_replication();
            }
            let shard = cluster.map.shard_for(ROOM_POOL);
            let mut run = ClientRun::default();
            let mut rng = StdRng::seed_from_u64(7);
            let mut book = |cluster: &PromiseCluster, rid: &str| {
                let op = ClientOp {
                    rid: rid.to_owned(),
                    predicates: BOOKING.map(String::from).to_vec(),
                    release: Release::Never,
                };
                let grant = (run.step(cluster, &mut rng, "traveller", op)).expect("answered");
                assert!(grant.decision.is_granted(), "{rid}: {grant:?}");
            };
            let free = |cluster: &PromiseCluster| {
                cluster.nodes[shard]
                    .pm
                    .free_instances(ROOM_POOL)
                    .expect("the rooms are hosted")
            };
            book(&cluster, "trip-1");
            let held_one = free(&cluster);
            assert_eq!(held_one.len(), 5, "promote={promote}: {held_one:?}");
            if promote {
                cluster.kill_shard(shard);
                cluster.promote_follower(shard);
            } else {
                cluster.crash_restart_shard(shard);
            }
            assert_eq!(free(&cluster), held_one, "promote={promote}");
            book(&cluster, "trip-2");
            assert_eq!(free(&cluster).len(), 4, "promote={promote}");
            let audit = audit_cluster(&cluster, &run);
            assert!(audit.clean(), "promote={promote}: {audit:?}");
        }
    }

    #[test]
    fn faulty_runs_stay_atomic() {
        for rate in [0.10, 0.20] {
            let report = run_travel_booking(&TravelConfig {
                fault_rate: rate,
                ..TravelConfig::default()
            });
            assert!(
                report.completion_ratio() >= 0.95,
                "rate {rate}: completion {:.3} ({report:?})",
                report.completion_ratio()
            );
            assert!(report.audit.clean(), "rate {rate}: {report:?}");
        }
    }
}
