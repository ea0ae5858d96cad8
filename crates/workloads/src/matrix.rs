//! The error-path matrix: every failure class crossed with every
//! scenario, each cell an explicit pass/skip/fail verdict.
//!
//! Fault coverage tends to rot silently — a fault class gets exercised in
//! whichever test someone happened to write, the rest are assumed. The
//! matrix makes the coverage claim inspectable: each cell actually runs a
//! compact version of its scenario under exactly one failure class and
//! audits the isolation invariants (no double grants, no oversells, no
//! leaks, bounded state). A cell is `Pass` when the audits come back
//! clean, `Fail` with the evidence when they do not, and `Skip` with the
//! reason when the combination is not applicable — never silently absent.

use std::sync::Arc;

use promises_cluster::{ClusterDecision, PromiseCluster};
use promises_core::JournalOp;
use promises_faults::{FaultInjector, FaultScenario};
use promises_rm::Record;

/// Failure classes injected one per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// Requests and replies dropped in flight.
    Drops,
    /// Requests delivered twice.
    Duplicates,
    /// Sub-millisecond delivery delays (reordering).
    Delays,
    /// RM storage faults inside shard transactions.
    StorageErrors,
    /// A pool-owning leader killed mid-run, warm follower promoted.
    LeaderKill,
    /// Admission cap plus degraded mode engaged mid-run.
    Overload,
}

impl FailureClass {
    /// All classes, matrix row order.
    pub const ALL: [FailureClass; 6] = [
        FailureClass::Drops,
        FailureClass::Duplicates,
        FailureClass::Delays,
        FailureClass::StorageErrors,
        FailureClass::LeaderKill,
        FailureClass::Overload,
    ];

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            FailureClass::Drops => "drops",
            FailureClass::Duplicates => "duplicates",
            FailureClass::Delays => "delays",
            FailureClass::StorageErrors => "storage-errors",
            FailureClass::LeaderKill => "leader-kill",
            FailureClass::Overload => "overload",
        }
    }
}

/// Matrix columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Zipf-contended single-leg grants on a two-shard cluster.
    FlashSale,
    /// Cross-shard three-leg bookings on a three-shard cluster.
    TravelBooking,
}

impl Scenario {
    /// All scenarios, matrix column order.
    pub const ALL: [Scenario; 2] = [Scenario::FlashSale, Scenario::TravelBooking];

    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::FlashSale => "flash-sale",
            Scenario::TravelBooking => "travel-booking",
        }
    }
}

/// One cell's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// Ran; all audits clean.
    Pass,
    /// Not applicable; the reason is recorded, never implied.
    Skip(String),
    /// Ran; at least one audit failed.
    Fail(String),
}

impl CellStatus {
    /// Checklist legend: `[x]` pass, `[-]` skipped, `[!]` failed.
    pub fn legend(&self) -> &'static str {
        match self {
            CellStatus::Pass => "[x]",
            CellStatus::Skip(_) => "[-]",
            CellStatus::Fail(_) => "[!]",
        }
    }
}

/// One (failure class, scenario) cell.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// The injected failure class.
    pub failure: FailureClass,
    /// The scenario it was injected into.
    pub scenario: Scenario,
    /// The verdict.
    pub status: CellStatus,
    /// Audit evidence: grants/rejects/failures and the audit counters.
    pub detail: String,
}

/// The full matrix.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// All cells, row-major (failure class outer, scenario inner).
    pub cells: Vec<MatrixCell>,
}

impl MatrixReport {
    /// Cells that ran and failed their audits.
    pub fn failures(&self) -> Vec<&MatrixCell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.status, CellStatus::Fail(_)))
            .collect()
    }

    /// No cell failed (skips are allowed — they are explicit).
    pub fn all_clean(&self) -> bool {
        self.failures().is_empty()
    }
}

/// Audit counters shared by every cell.
#[derive(Debug, Default)]
struct CellAudit {
    double_grants: u64,
    oversells: u64,
    live_after_reap: usize,
    state_after_reap: usize,
    granted: u64,
    rejected: u64,
    failed: u64,
}

impl CellAudit {
    fn verdict(&self) -> CellStatus {
        if self.granted == 0 {
            return CellStatus::Fail("no grant ever succeeded — cell exercised nothing".into());
        }
        if self.double_grants == 0
            && self.oversells == 0
            && self.live_after_reap == 0
            && self.state_after_reap == 0
        {
            CellStatus::Pass
        } else {
            CellStatus::Fail(self.detail())
        }
    }

    fn detail(&self) -> String {
        format!(
            "granted {} rejected {} failed {}; double {} oversell {} live {} state {}",
            self.granted,
            self.rejected,
            self.failed,
            self.double_grants,
            self.oversells,
            self.live_after_reap,
            self.state_after_reap
        )
    }
}

/// Scans the shard journals and quantity books, then reaps, filling the
/// invariant counters.
fn audit_cluster(cluster: &PromiseCluster, audit: &mut CellAudit) {
    for node in &cluster.nodes {
        // The audit judges the end state: an injected fault on its own
        // reads would count a failed `quantity_on_hand` as an oversell.
        node.rm.set_storage_fault_hook(None);
        let mut grant_counts: std::collections::BTreeMap<(String, String), u32> =
            std::collections::BTreeMap::new();
        if let Ok(entries) = node.journal.entries() {
            for entry in entries {
                if let JournalOp::Grant(rec) | JournalOp::Prepared(rec) = entry.op {
                    *grant_counts
                        .entry((rec.client.0.clone(), rec.request.0.clone()))
                        .or_insert(0) += 1;
                }
            }
        }
        audit.double_grants += grant_counts.values().filter(|&&n| n > 1).count() as u64;
        for (pool, demanded) in node.pm.promised_quantities() {
            let on_hand = node.pm.quantity_on_hand(pool.clone()).unwrap_or(0);
            if demanded > on_hand {
                audit.oversells += 1;
            }
        }
    }
    cluster.advance_and_prune(4_000_000);
    audit.live_after_reap = cluster.live_count();
    cluster.advance_and_prune(400_000);
    audit.state_after_reap = cluster.coordinator.dedup_len()
        + cluster
            .nodes
            .iter()
            .map(|n| n.pm.tombstone_count())
            .sum::<usize>();
}

/// Wire-fault scenario for the message-level failure classes.
fn wire_faults(class: FailureClass, seed: u64) -> Option<FaultScenario> {
    let quiet = FaultScenario::quiet(seed);
    match class {
        FailureClass::Drops => Some(FaultScenario {
            drop_request: 0.15,
            drop_reply: 0.15,
            ..quiet
        }),
        FailureClass::Duplicates => Some(FaultScenario {
            duplicate: 0.30,
            ..quiet
        }),
        FailureClass::Delays => Some(FaultScenario {
            delay_probability: 0.30,
            max_delay: std::time::Duration::from_micros(200),
            ..quiet
        }),
        FailureClass::StorageErrors => Some(FaultScenario::quiet(seed).with_storage_errors(0.03)),
        FailureClass::LeaderKill | FailureClass::Overload => None,
    }
}

/// Applies `class`'s injector to the cluster (wire and, for storage
/// faults, every shard RM).
fn install_faults(cluster: &PromiseCluster, class: FailureClass, seed: u64) {
    if let Some(scenario) = wire_faults(class, seed) {
        let storage = matches!(class, FailureClass::StorageErrors);
        let injector = Arc::new(FaultInjector::new(scenario));
        if storage {
            for node in &cluster.nodes {
                node.rm.set_storage_fault_hook(Some(injector.rm_hook()));
            }
        } else {
            cluster.bus.set_fault_injector(Some(Arc::clone(&injector)));
        }
    }
}

const CELL_OPS: usize = 48;

/// One flash-sale cell: single-leg Zipf-free grants on the hot pool of a
/// two-shard cluster, half released immediately, under `class`.
fn flash_cell(class: FailureClass, seed: u64) -> MatrixCell {
    let mut cluster = PromiseCluster::build(2, seed);
    cluster.register_quantity_pool("sale-hot", 10_000);
    cluster.register_quantity_pool("sale-cold", 10_000);
    if class == FailureClass::LeaderKill {
        cluster.enable_replication();
    }
    install_faults(&cluster, class, seed);
    if class == FailureClass::Overload {
        for node in &cluster.nodes {
            node.pm.set_overload_limit(8);
        }
    }

    let mut audit = CellAudit::default();
    for i in 0..CELL_OPS {
        if class == FailureClass::LeaderKill && i == CELL_OPS / 2 {
            // Kill the cold pool's owner mid-run and promote its warm
            // follower; the hot pool's shard keeps serving throughout.
            cluster.kill_shard(1);
            cluster.promote_follower(1);
        }
        if class == FailureClass::Overload && i == CELL_OPS / 2 {
            for node in &cluster.nodes {
                node.pm.set_degraded(true);
            }
        }
        let pool = if i % 4 == 0 { "sale-cold" } else { "sale-hot" };
        match cluster.coordinator.grant(
            &format!("shopper-{}", i % 8),
            &format!("cell-{i}"),
            &[format!("qty('{pool}') >= 1")],
            600_000,
        ) {
            Ok(ClusterDecision::Granted { parts }) => {
                audit.granted += 1;
                if i % 2 == 0 {
                    cluster.coordinator.release(&parts);
                }
            }
            Ok(ClusterDecision::Rejected { .. }) => audit.rejected += 1,
            Err(_) => audit.failed += 1,
        }
    }
    if class == FailureClass::Overload {
        for node in &cluster.nodes {
            node.pm.set_degraded(false);
        }
    }

    audit_cluster(&cluster, &mut audit);
    MatrixCell {
        failure: class,
        scenario: Scenario::FlashSale,
        status: audit.verdict(),
        detail: audit.detail(),
    }
}

/// One travel-booking cell: three-leg cross-shard negotiated bookings
/// (flight + car + twin-bed room, view desirable) under `class`.
fn travel_cell(class: FailureClass, seed: u64) -> MatrixCell {
    let mut cluster = PromiseCluster::build(3, seed);
    let flight_shard = cluster.register_quantity_pool("flight-seats", 10_000);
    cluster.register_quantity_pool("rental-cars", 10_000);
    let room_shard = cluster.map.assign_round_robin("travel-rooms");
    {
        let room_pm = &cluster.nodes[room_shard].pm;
        room_pm.register_pool(promises_core::PoolSchema::instances(
            "travel-rooms",
            vec![
                promises_core::PropertyDef::plain("beds"),
                promises_core::PropertyDef::plain("view"),
            ],
        ));
        for i in 0..12 {
            room_pm
                .seed_instance(
                    "travel-rooms",
                    format!("room-{i}").as_str(),
                    Record::new().with("beds", 2i64).with("view", i < 2),
                )
                .expect("seed room");
        }
    }
    if class == FailureClass::LeaderKill {
        cluster.enable_replication();
    }
    install_faults(&cluster, class, seed);
    if class == FailureClass::Overload {
        for node in &cluster.nodes {
            node.pm.set_overload_limit(8);
        }
    }

    let predicates = [
        "qty('flight-seats') >= 1".to_owned(),
        "qty('rental-cars') >= 1".to_owned(),
        "prop('travel-rooms'): beds == 2 && desirable(view == true)".to_owned(),
    ];
    let mut audit = CellAudit::default();
    for i in 0..CELL_OPS {
        if class == FailureClass::LeaderKill && i == CELL_OPS / 2 {
            // Kill the flight shard (quantity pools only — the room
            // instance pool's shard must keep its schema) and promote.
            cluster.kill_shard(flight_shard);
            cluster.promote_follower(flight_shard);
        }
        if class == FailureClass::Overload && i == CELL_OPS / 2 {
            for node in &cluster.nodes {
                node.pm.set_degraded(true);
            }
        }
        match cluster.coordinator.grant_negotiated(
            &format!("traveller-{}", i % 8),
            &format!("cell-{i}"),
            &predicates,
            600_000,
        ) {
            Ok(grant) => match grant.decision {
                ClusterDecision::Granted { parts } => {
                    audit.granted += 1;
                    if i % 2 == 0 {
                        cluster.coordinator.release(&parts);
                    }
                }
                ClusterDecision::Rejected { .. } => audit.rejected += 1,
            },
            Err(_) => audit.failed += 1,
        }
    }
    if class == FailureClass::Overload {
        for node in &cluster.nodes {
            node.pm.set_degraded(false);
        }
    }

    audit_cluster(&cluster, &mut audit);
    MatrixCell {
        failure: class,
        scenario: Scenario::TravelBooking,
        status: audit.verdict(),
        detail: audit.detail(),
    }
}

/// Runs every (failure class × scenario) cell and returns the matrix.
pub fn run_error_path_matrix(seed: u64) -> MatrixReport {
    let mut cells = Vec::with_capacity(FailureClass::ALL.len() * Scenario::ALL.len());
    for class in FailureClass::ALL {
        for scenario in Scenario::ALL {
            let cell_seed = seed ^ ((cells.len() as u64 + 1) << 8);
            cells.push(match scenario {
                Scenario::FlashSale => flash_cell(class, cell_seed),
                Scenario::TravelBooking => travel_cell(class, cell_seed),
            });
        }
    }
    MatrixReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_cell_and_passes() {
        let report = run_error_path_matrix(2007);
        assert_eq!(report.cells.len(), 12, "6 failure classes x 2 scenarios");
        for cell in &report.cells {
            assert!(
                !matches!(cell.status, CellStatus::Fail(_)),
                "{} x {}: {:?} ({})",
                cell.failure.name(),
                cell.scenario.name(),
                cell.status,
                cell.detail
            );
        }
        // Nothing is silently skipped either: every cell currently runs.
        assert!(report
            .cells
            .iter()
            .all(|c| matches!(c.status, CellStatus::Pass)));
    }
}
