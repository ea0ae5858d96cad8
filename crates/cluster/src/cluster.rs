//! Cluster assembly: N shard nodes behind one bus, one router, and one
//! coordinator, sharing a manual clock so expiry is driven
//! deterministically in tests and sweeps.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use promises_core::{Clock, ManualClock, PoolSchema, RecoveryReport};
use promises_faults::FaultInjector;
use promises_telemetry::{
    FlightRecorder, HealthState, IncidentReport, ShardEvidence, SpanKind, Telemetry,
    TelemetrySnapshot, WatchdogTrip,
};
use promises_wire::{InMemoryBus, RetryPolicy, RetryingClient};

use crate::coordinator::Coordinator;
use crate::lease::LeaseDirectory;
use crate::log::CoordinatorLog;
use crate::replica::{ReplicationLink, ShardFollower};
use crate::router::{versioned_endpoint, ShardMap};
use crate::shard::{PoolSeed, ShardNode};

/// What one [`PromiseCluster::rebalance_leases`] cycle did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseRebalance {
    /// Lease units moved between shards this cycle.
    pub moved: u64,
    /// Units found missing from the cluster-wide lease sum (stranded by a
    /// crash between a withdraw and its deposit) and re-credited.
    pub healed: u64,
    /// True when an armed mid-rebalance crash fired: withdraws landed,
    /// deposits did not — the stranded headroom heals next cycle.
    pub crashed: bool,
}

/// What one [`PromiseCluster::promote_follower`] call did.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The shard whose follower was promoted.
    pub shard: usize,
    /// The shard's new leadership incarnation (≥ 1).
    pub node_epoch: u64,
    /// The promoted leader's bus endpoint (`"shardN.eK"`).
    pub endpoint: String,
    /// The recovery report from replaying the follower's journal —
    /// `in_doubt` counts prepared 2PC holds awaiting the coordinator.
    pub recovery: RecoveryReport,
    /// Wall-clock time from the promotion decision to the promoted
    /// leader answering on its new endpoint (the measured MTTR).
    pub mttr: Duration,
}

/// A running promise-manager cluster.
pub struct PromiseCluster {
    /// The bus every shard answers on.
    pub bus: Arc<InMemoryBus>,
    /// Pool→shard ownership.
    pub map: Arc<ShardMap>,
    /// The shard nodes, by index.
    pub nodes: Vec<ShardNode>,
    /// The cross-shard grant coordinator.
    pub coordinator: Arc<Coordinator>,
    /// The shared cluster clock (manual, driven by tests/sweeps).
    pub clock: Arc<ManualClock>,
    /// The coordinator's telemetry registry (shards have their own).
    pub telemetry: Arc<Telemetry>,
    /// Control-plane flight recorder: 2PC phase changes (via the
    /// coordinator), lease withdraws/deposits, fail-over kills and
    /// promotions. Shares an epoch with every shard recorder so incident
    /// timelines are comparable across nodes.
    pub recorder: Arc<FlightRecorder>,
    /// Registered quantity pools: `(name, seeded qty, owning shard)` — the
    /// cluster-wide totals lease accounting and the audits read. What a
    /// shard hosts is the shard's own record ([`ShardNode::host`]).
    pools: Mutex<Vec<(String, u64, usize)>>,
    /// The advisory lease directory when [`PromiseCluster::enable_leases`]
    /// has been called; `None` keeps the pre-lease ownership routing.
    leases: Mutex<Option<Arc<LeaseDirectory>>>,
    /// Serialises rebalance cycles (the sweep driver and a test may both
    /// call [`PromiseCluster::advance_and_prune`]); grants never take it.
    rebalance_gate: Mutex<()>,
    /// Armed crash for the next rebalance cycle: fire after the withdraw
    /// pass of the first rebalanced pool, before any deposit.
    rebalance_crash: Mutex<bool>,
    /// The injector consulted at the replication fault points, applied to
    /// every live link and to links created by later promotions.
    repl_injector: Mutex<Option<Arc<FaultInjector>>>,
}

impl PromiseCluster {
    /// Builds a cluster of `shards` nodes. `seed` feeds the coordinator
    /// client's retry jitter so runs are reproducible.
    pub fn build(shards: usize, seed: u64) -> Self {
        let bus = Arc::new(InMemoryBus::new());
        let clock = Arc::new(ManualClock::new());
        let map = Arc::new(ShardMap::new(shards));
        let telemetry = Telemetry::shared();
        // One epoch for every flight recorder in the cluster, so event
        // timestamps in an incident report line up across nodes.
        let epoch = Instant::now();
        let mut nodes: Vec<ShardNode> = (0..shards)
            .map(|i| ShardNode::build(i, &bus, Arc::clone(&clock) as Arc<dyn Clock>))
            .collect();
        for node in &mut nodes {
            node.recorder = FlightRecorder::with_epoch(node.endpoint.clone(), epoch);
        }
        let recorder = FlightRecorder::with_epoch("coordinator", epoch);
        let client = Arc::new(
            RetryingClient::new(Arc::clone(&bus), RetryPolicy::new(seed ^ 0xC0_0CD1))
                .with_telemetry(Arc::clone(&telemetry)),
        );
        let coordinator = Arc::new(
            Coordinator::new(
                Arc::clone(&map),
                client,
                Arc::new(CoordinatorLog::new()),
                Arc::clone(&clock) as Arc<dyn Clock>,
            )
            .with_telemetry(Arc::clone(&telemetry)),
        );
        coordinator.set_recorder(Some(Arc::clone(&recorder)));
        Self {
            bus,
            map,
            nodes,
            coordinator,
            clock,
            telemetry,
            recorder,
            pools: Mutex::new(Vec::new()),
            leases: Mutex::new(None),
            rebalance_gate: Mutex::new(()),
            rebalance_crash: Mutex::new(false),
            repl_injector: Mutex::new(None),
        }
    }

    /// Attaches a warm follower to every shard: each leader gets a standby
    /// journal fed by semi-synchronous segment shipping (the shard server
    /// syncs once per batch of handled messages, before replying;
    /// cluster-driven appends — pruning, compaction, lease rebalancing —
    /// sync at the end of their cycles). Call any time; the first sync
    /// ships the journal as it stands. Idempotent per shard: existing
    /// followers are kept.
    pub fn enable_replication(&mut self) {
        for index in 0..self.nodes.len() {
            if self.nodes[index].follower.is_none() {
                self.attach_follower(index);
            }
        }
    }

    fn attach_follower(&mut self, index: usize) {
        let follower = Arc::new(ShardFollower::new());
        let link = Arc::new(ReplicationLink::new(
            Arc::clone(&self.nodes[index].journal),
            Arc::clone(&follower),
            Arc::clone(&self.telemetry),
            index,
        ));
        link.set_injector(self.repl_injector.lock().clone());
        self.nodes[index].server.set_replication(Arc::clone(&link));
        self.nodes[index].follower = Some(follower);
        self.nodes[index].replication = Some(link);
    }

    /// Installs (or clears) the fault injector consulted at the
    /// `repl-drop` / `repl-lag` points on every replication link,
    /// including links created by later promotions.
    pub fn set_replication_faults(&self, injector: Option<Arc<FaultInjector>>) {
        *self.repl_injector.lock() = injector.clone();
        for node in &self.nodes {
            if let Some(link) = &node.replication {
                link.set_injector(injector.clone());
            }
        }
    }

    /// Syncs every replication link (no-op for shards without one).
    /// Called after cluster-driven journal appends that bypass the bus.
    pub fn sync_replication(&self) {
        for node in &self.nodes {
            if let Some(link) = &node.replication {
                link.sync();
            }
        }
    }

    /// Kills shard `index`'s leader: its bus endpoint is unregistered so
    /// every in-flight and future send fails fast (`UnknownEndpoint` is
    /// non-retryable), modelling a dead process rather than a slow one.
    /// The final link sync before the plug is pulled models the
    /// semi-synchronous contract — every record the leader's disk held
    /// when it died had already been shipped, because appends are acked
    /// before their operations become externally visible. The node's RM,
    /// journal, and promise table are then considered lost; only
    /// [`PromiseCluster::promote_follower`] can bring the shard back.
    pub fn kill_shard(&self, index: usize) {
        if let Some(link) = &self.nodes[index].replication {
            link.sync();
        }
        self.bus.unregister(&self.nodes[index].endpoint);
        self.telemetry.incr("cluster.failover.leader_kills");
        self.recorder.record(
            "failover.kill",
            format!("leader {} unregistered", self.nodes[index].endpoint),
        );
    }

    /// Kills shard `index`'s leader with *no* courtesy sync — the plug is
    /// pulled between whatever the group-commit barrier last shipped and
    /// whatever the journal has buffered since. This is the honest kill:
    /// the semi-synchronous guarantee must come entirely from the barrier
    /// ("no reply leaves until its batch is flushed and shipped", DESIGN
    /// §19), never from a graceful shutdown's final sync. The
    /// kill-between-flush-and-ship failover test promotes after this and
    /// asserts every *acknowledged* grant survived.
    pub fn kill_shard_abrupt(&self, index: usize) {
        self.bus.unregister(&self.nodes[index].endpoint);
        self.telemetry.incr("cluster.failover.leader_kills");
        self.recorder.record(
            "failover.kill",
            format!(
                "leader {} unregistered (abrupt)",
                self.nodes[index].endpoint
            ),
        );
    }

    /// Promotes shard `index`'s warm follower over its killed leader:
    /// bumps the shard's leadership epoch (fencing the dead incarnation's
    /// address), rebuilds the node from the follower's journal copy via
    /// the standard recovery path, registers it at the epoch-versioned
    /// endpoint, and attaches a fresh follower so the new leader is
    /// itself protected. The coordinator re-resolves in-doubt `rid@sN`
    /// holds against the promoted node on its next
    /// [`Coordinator::recover`] — prepared holds survive in the replica
    /// exactly as they survive a same-node restart.
    pub fn promote_follower(&mut self, index: usize) -> FailoverReport {
        let started = Instant::now();
        let node_epoch = self.map.bump_node_epoch(index);
        let endpoint = versioned_endpoint(index, node_epoch);
        let bus = Arc::clone(&self.bus);
        let recovery = self.nodes[index].promote(&bus, endpoint.clone());
        self.attach_follower(index);
        let mttr = started.elapsed();
        self.telemetry.incr("cluster.failover.promotions");
        self.telemetry.set_gauge(
            "cluster.failover.last_mttr_us",
            u64::try_from(mttr.as_micros()).unwrap_or(u64::MAX),
        );
        self.telemetry
            .span_since(SpanKind::Failover, started)
            .finish_with(mttr);
        self.recorder.record(
            "failover.promote",
            format!(
                "shard{index} -> {} epoch={} in_doubt={} mttr_us={}",
                endpoint,
                node_epoch,
                recovery.in_doubt,
                mttr.as_micros()
            ),
        );
        FailoverReport {
            shard: index,
            node_epoch,
            endpoint,
            recovery,
            mttr,
        }
    }

    /// Switches the cluster to per-shard escrow leases: every subsequently
    /// registered quantity pool is hosted on *every* shard (the owner
    /// starts with the full quantity as its lease, the rest with zero),
    /// the coordinator routes covered grants to the requesting client's
    /// home shard, and [`PromiseCluster::advance_and_prune`] drives the
    /// demand-driven rebalancer. Must be called before any pool is
    /// registered. Returns the directory so callers can pin home shards.
    pub fn enable_leases(&self) -> Arc<LeaseDirectory> {
        assert!(
            self.pools.lock().is_empty(),
            "enable_leases must run before pools are registered"
        );
        let dir = Arc::new(LeaseDirectory::new(self.nodes.len()));
        *self.leases.lock() = Some(Arc::clone(&dir));
        self.coordinator.set_lease_directory(Some(Arc::clone(&dir)));
        dir
    }

    /// The lease directory, when leases are enabled.
    pub fn lease_directory(&self) -> Option<Arc<LeaseDirectory>> {
        self.leases.lock().clone()
    }

    /// Registers and seeds a quantity pool, assigning it to a shard
    /// round-robin (deterministic in registration order). With leases
    /// enabled the pool is additionally hosted on every other shard with a
    /// zero lease, so rebalancing can move headroom anywhere.
    pub fn register_quantity_pool(&self, name: &str, qty: u64) -> usize {
        let shard = self.map.assign_round_robin(name);
        if let Some(dir) = self.leases.lock().clone() {
            for node in &self.nodes {
                let lease = if node.index == shard { qty } else { 0 };
                node.host(PoolSchema::quantity(name), PoolSeed::Lease(lease));
                dir.set_headroom(name, node.index, lease);
            }
        } else {
            self.nodes[shard].host(PoolSchema::quantity(name), PoolSeed::Quantity(qty));
        }
        self.pools.lock().push((name.to_owned(), qty, shard));
        shard
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.nodes.len()
    }

    /// Sets the modeled per-message service time on every shard node
    /// (see [`crate::ShardServer`]); 0 disables the model.
    pub fn set_service_time_us(&self, us: u64) {
        for node in &self.nodes {
            node.server.set_service_us(us);
        }
    }

    /// Registered quantity pools as `(name, seeded qty, owning shard)`.
    pub fn registered_pools(&self) -> Vec<(String, u64, usize)> {
        self.pools.lock().clone()
    }

    /// Kills shard `index` (its in-memory promise table and storage die)
    /// and rebuilds it from its hosting record and journal. Returns the
    /// shard's recovery report.
    pub fn crash_restart_shard(&mut self, index: usize) -> RecoveryReport {
        let bus = Arc::clone(&self.bus);
        self.nodes[index].crash_restart(&bus)
    }

    /// Total live promises across every shard.
    pub fn live_count(&self) -> usize {
        self.nodes.iter().map(|n| n.pm.live_count()).sum()
    }

    /// Advances the shared clock and prunes expiry on every shard. This is
    /// the cluster's housekeeping pass, so it also gives each shard its
    /// journal-compaction opportunity, runs a lease
    /// rebalance cycle when leases are enabled, and sweeps the
    /// coordinator's dedup index (all bounded-state disciplines).
    pub fn advance_and_prune(&self, ms: u64) {
        self.clock.advance(ms);
        for node in &self.nodes {
            let _ = node.pm.prune_expired();
            if let Ok(Some(swap)) = node.pm.maybe_compact() {
                node.recorder.record(
                    "compact.swap",
                    format!(
                        "{} dropped={} live={} prepared={} seq={}",
                        node.endpoint, swap.dropped, swap.live, swap.prepared, swap.seq
                    ),
                );
            }
        }
        self.rebalance_leases();
        self.coordinator.sweep_dedup();
        // Pruning, compaction, and rebalancing append to shard journals
        // without a bus reply to hang the ack on — ship them now so the
        // semi-synchronous contract covers cluster-driven appends too.
        self.sync_replication();
    }

    /// Arms a crash for the next rebalance cycle: it stops after the
    /// withdraw pass of the first pool it processes, before any deposit —
    /// the worst interleaving for the lease-sum invariant.
    pub fn arm_rebalance_crash(&self) {
        *self.rebalance_crash.lock() = true;
    }

    /// One demand-driven rebalance cycle (no-op without leases): for each
    /// pool, re-credit any headroom stranded by a mid-rebalance crash,
    /// then move unpromised lease headroom toward the demand observed
    /// since the last cycle, withdraw-before-deposit so the lease sum can
    /// transiently shrink but never exceed the pool total. Refreshes the
    /// directory's headroom estimates and the per-pool headroom gauges.
    pub fn rebalance_leases(&self) -> Option<LeaseRebalance> {
        let dir = self.leases.lock().clone()?;
        let _serial = self.rebalance_gate.lock();
        let pools = self.pools.lock().clone();
        let mut report = LeaseRebalance::default();
        for (pool, total, owner) in &pools {
            // Heal first: any units missing from the authoritative lease
            // sum were stranded between a withdraw and its deposit. Credit
            // them to the busiest shard (the owner when demand is quiet).
            let demand: Vec<u64> = dir.take_demand(pool);
            let lease_sum: u64 = self
                .nodes
                .iter()
                .map(|n| n.pm.lease_of(pool.as_str()).unwrap_or(0))
                .sum();
            let missing = total.saturating_sub(lease_sum);
            if missing > 0 {
                let busiest = demand
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, d)| **d)
                    .filter(|(_, d)| **d > 0)
                    .map(|(i, _)| i)
                    .unwrap_or(*owner);
                let _ = self.nodes[busiest].pm.lease_deposit(pool.as_str(), missing);
                report.healed += missing;
                self.recorder
                    .record("lease.heal", format!("{pool} +{missing} -> shard{busiest}"));
            }

            let total_demand: u64 = demand.iter().sum();
            if total_demand > 0 {
                // Target: split the pool's *unpromised* headroom across
                // shards in proportion to observed demand.
                let headroom: Vec<u64> = self
                    .nodes
                    .iter()
                    .map(|n| n.pm.lease_headroom(pool.as_str()))
                    .collect();
                let pool_headroom: u64 = headroom.iter().sum();
                let mut desired: Vec<u64> = demand
                    .iter()
                    .map(|d| {
                        ((u128::from(pool_headroom) * u128::from(*d)) / u128::from(total_demand))
                            as u64
                    })
                    .collect();
                // Integer-division remainder goes to the busiest shard.
                let assigned: u64 = desired.iter().sum();
                if let Some((busiest, _)) = demand.iter().enumerate().max_by_key(|(_, d)| **d) {
                    desired[busiest] += pool_headroom - assigned;
                }
                // Withdraw surpluses into a pot...
                let mut pot = 0u64;
                for (i, node) in self.nodes.iter().enumerate() {
                    if headroom[i] > desired[i] {
                        let moved = node
                            .pm
                            .lease_withdraw(pool.as_str(), headroom[i] - desired[i])
                            .unwrap_or(0);
                        pot += moved;
                        report.moved += moved;
                        if moved > 0 {
                            self.recorder
                                .record("lease.withdraw", format!("{pool} -{moved} shard{i}"));
                        }
                    }
                }
                if std::mem::take(&mut *self.rebalance_crash.lock()) {
                    // Modeled control-plane death between the donors' and
                    // the receivers' journal appends: `pot` is stranded —
                    // the lease sum shrank, which is the safe direction —
                    // until the next cycle's heal re-credits it.
                    report.crashed = true;
                    self.telemetry.incr("cluster.lease.rebalance_crashes");
                    self.recorder.record(
                        "lease.crash",
                        format!("{pool} stranded={pot} mid-rebalance"),
                    );
                    // The donors' withdraw records are already durable —
                    // ship them so a leader killed right after this crash
                    // still promotes to a digest-faithful follower.
                    self.sync_replication();
                    return Some(report);
                }
                // ...then deposit them toward the deficits.
                for (i, node) in self.nodes.iter().enumerate() {
                    if pot == 0 {
                        break;
                    }
                    if headroom[i] < desired[i] {
                        let give = pot.min(desired[i] - headroom[i]);
                        if node.pm.lease_deposit(pool.as_str(), give).is_ok() {
                            pot -= give;
                            self.recorder
                                .record("lease.deposit", format!("{pool} +{give} shard{i}"));
                        }
                    }
                }
                if pot > 0 {
                    let _ = self.nodes[*owner].pm.lease_deposit(pool.as_str(), pot);
                    self.recorder.record(
                        "lease.deposit",
                        format!("{pool} +{pot} shard{owner} (owner)"),
                    );
                }
            }

            // Refresh the advisory directory and the observability gauge
            // from the authoritative per-shard state.
            let mut pool_headroom = 0u64;
            for node in &self.nodes {
                let h = node.pm.lease_headroom(pool.as_str());
                dir.set_headroom(pool, node.index, h);
                pool_headroom += h;
            }
            self.telemetry
                .set_gauge(&format!("cluster.lease.headroom.{pool}"), pool_headroom);
        }
        if report.moved > 0 {
            self.telemetry
                .add("cluster.lease.rebalance_moved", report.moved);
        }
        // Withdraw/deposit `W` records bypass the bus; ship them before
        // the cycle is considered complete.
        self.sync_replication();
        Some(report)
    }

    /// Publishes the gauges the health plane folds (DESIGN §17): per-node
    /// `pm.in_doubt.oldest_ms` and `pm.dedup.tombstones` into each shard
    /// registry, and — when leases are enabled — per-pool
    /// `cluster.lease.sum.*` / `cluster.lease.total.*` plus per-shard
    /// `cluster.lease.headroom.<pool>.shardN` into the cluster registry.
    /// Replication tip/watermark/lag gauges are refreshed by every link
    /// sync and need no help here.
    fn publish_health_gauges(&self) {
        for node in &self.nodes {
            node.telemetry.set_gauge(
                "pm.in_doubt.oldest_ms",
                node.pm.oldest_in_doubt_age_ms().unwrap_or(0),
            );
            node.telemetry
                .set_gauge("pm.dedup.tombstones", node.pm.tombstone_count() as u64);
        }
        if self.leases.lock().is_none() {
            // Without leases `lease_of` is None everywhere; publishing
            // sum=0 against a non-zero total would fake a conservation
            // violation.
            return;
        }
        for (pool, total, _) in self.pools.lock().clone() {
            let mut sum = 0u64;
            for node in &self.nodes {
                sum += node.pm.lease_of(pool.as_str()).unwrap_or(0);
                self.telemetry.set_gauge(
                    &format!("cluster.lease.headroom.{pool}.shard{}", node.index),
                    node.pm.lease_headroom(pool.as_str()),
                );
            }
            self.telemetry
                .set_gauge(&format!("cluster.lease.sum.{pool}"), sum);
            self.telemetry
                .set_gauge(&format!("cluster.lease.total.{pool}"), total);
        }
    }

    /// One health-plane tick: refresh the derived gauges, fold a merged
    /// snapshot through the watchdogs, publish the `health.*` view, and
    /// cut a flight-recorder incident report for every trip. The caller
    /// owns the [`HealthState`] (watchdog memory spans ticks).
    pub fn health_tick(&self, state: &mut HealthState) -> Vec<(WatchdogTrip, IncidentReport)> {
        self.publish_health_gauges();
        let snap = self.snapshot();
        let trips = state.observe(&snap);
        state.last.publish(&self.telemetry);
        trips
            .into_iter()
            .map(|trip| {
                let reason = format!("watchdog:{} {}", trip.watchdog.name(), trip.subject);
                let incident = self.recorder.incident(&reason, &snap);
                (trip, incident)
            })
            .collect()
    }

    /// One merged metrics snapshot: the coordinator registry's series
    /// unprefixed plus every shard's series under `shardN.` labels.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        for node in &self.nodes {
            snap.absorb_prefixed(&node.endpoint, &node.telemetry.snapshot());
        }
        snap
    }

    /// Per-shard spans + journal truth for the cluster lifecycle auditor.
    pub fn evidence(&self) -> Vec<ShardEvidence> {
        self.nodes.iter().map(ShardNode::evidence).collect()
    }
}
