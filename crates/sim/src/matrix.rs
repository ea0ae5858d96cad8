//! The error-path matrix: every failure class crossed with every
//! scenario, each cell an explicit pass/skip/fail verdict.
//!
//! Fault coverage tends to rot silently — a fault class gets exercised in
//! whichever test someone happened to write, the rest are assumed. The
//! matrix makes the coverage claim inspectable: each cell actually runs a
//! compact version of its scenario — one data row: shards, pools,
//! predicates — under exactly one failure class, sends every op through
//! [`ClientRun::step`], and ends in the one cluster audit (no partial or
//! double grants, no oversells, no leaks, bounded state). A cell is `Pass`
//! when the audit comes back clean, `Fail` with the evidence when it does
//! not, and `Skip` with the reason when the combination is not applicable
//! — never silently absent.

use std::sync::Arc;

use promises_cluster::PromiseCluster;
use promises_faults::{FaultInjector, FaultScenario};
use rand::{rngs::StdRng, SeedableRng};

use crate::audit::{audit_cluster, ClusterAudit};
use crate::clients::{ClientOp, ClientRun, ClientTally, Release};
use crate::travel::{host_rooms, BOOKING};

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

    /// The column as data.
    fn row(self) -> ScenarioRow {
        match self {
            Scenario::FlashSale => ScenarioRow {
                shards: 2,
                pools: &["sale-hot", "sale-cold"],
                rooms: 0,
                kill: 1,
                predicates: |i| {
                    let pool = if i % 4 == 0 { "sale-cold" } else { "sale-hot" };
                    vec![format!("qty('{pool}') >= 1")]
                },
            },
            Scenario::TravelBooking => ScenarioRow {
                shards: 3,
                pools: &["flight-seats", "rental-cars"],
                rooms: 12,
                kill: 0,
                predicates: |_| BOOKING.map(String::from).to_vec(),
            },
        }
    }
}

/// What one scenario's cells build and send.
struct ScenarioRow {
    /// Shard count.
    shards: usize,
    /// Quantity pools of 10 000 units, placed round-robin: pool `i` on
    /// shard `i`.
    pools: &'static [&'static str],
    /// Twin-bed rooms hosted on the next round-robin shard, two with a
    /// view (0 = none).
    rooms: usize,
    /// The pool whose owner the leader-kill class kills. Promotion
    /// rebuilds every pool the node hosts, instance pools included.
    kill: usize,
    /// What op `i` asks for.
    predicates: fn(usize) -> Vec<String>,
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

/// One (failure class, scenario) cell.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// The injected failure class.
    pub failure: FailureClass,
    /// The scenario it was injected into.
    pub scenario: Scenario,
    /// The verdict.
    pub status: CellStatus,
    /// What the cell's clients saw.
    pub tally: ClientTally,
    /// The cell's audit.
    pub audit: ClusterAudit,
}

impl MatrixCell {
    /// Audit evidence: grants, rejections and failures, then the audit.
    pub fn detail(&self) -> String {
        let t = &self.tally;
        let failed = t.transport_failures + t.crashed;
        let (granted, rejected, audit) = (t.granted, t.rejected, &self.audit);
        format!("granted {granted} rejected {rejected} failed {failed}; {audit:?}")
    }
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
/// faults, every shard RM); overload caps every shard at 8 live promises.
fn install_faults(cluster: &PromiseCluster, class: FailureClass, seed: u64) {
    if class == FailureClass::Overload {
        for node in &cluster.nodes {
            node.pm.set_overload_limit(8);
        }
    }
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

/// Sets degraded mode on every shard.
fn degrade(cluster: &PromiseCluster, on: bool) {
    for node in &cluster.nodes {
        node.pm.set_degraded(on);
    }
}

/// One cell: `scenario`'s row under `class`, every even op released at
/// once, every odd op held.
fn cell(class: FailureClass, scenario: Scenario, seed: u64) -> MatrixCell {
    let row = scenario.row();
    let mut cluster = PromiseCluster::build(row.shards, seed);
    for pool in row.pools {
        cluster.register_quantity_pool(pool, 10_000);
    }
    if row.rooms > 0 {
        host_rooms(&cluster, row.rooms, 2);
    }
    if class == FailureClass::LeaderKill {
        cluster.enable_replication();
    }
    install_faults(&cluster, class, seed);

    let mut run = ClientRun::default();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..CELL_OPS {
        if i == CELL_OPS / 2 {
            match class {
                // Kill a pool owner mid-run and promote its warm follower;
                // the other shards keep serving throughout.
                FailureClass::LeaderKill => {
                    cluster.kill_shard(row.kill);
                    cluster.promote_follower(row.kill);
                }
                FailureClass::Overload => degrade(&cluster, true),
                _ => {}
            }
        }
        let op = ClientOp {
            rid: format!("cell-{i}"),
            predicates: (row.predicates)(i),
            release: if i % 2 == 0 {
                Release::Always
            } else {
                Release::Never
            },
        };
        let _ = run.step(&cluster, &mut rng, &format!("client-{}", i % 8), op);
    }
    degrade(&cluster, false);

    let audit = audit_cluster(&cluster, &run);
    let status = match (run.tally.granted, audit.clean()) {
        (0, _) => CellStatus::Fail("no grant ever succeeded — cell exercised nothing".into()),
        (_, true) => CellStatus::Pass,
        (_, false) => CellStatus::Fail(format!("{audit:?}")),
    };
    MatrixCell {
        failure: class,
        scenario,
        status,
        tally: run.tally,
        audit,
    }
}

/// Runs every (failure class × scenario) cell and returns the matrix.
pub fn run_error_path_matrix(seed: u64) -> MatrixReport {
    let mut cells = Vec::with_capacity(FailureClass::ALL.len() * Scenario::ALL.len());
    for class in FailureClass::ALL {
        for scenario in Scenario::ALL {
            let cell_seed = seed ^ ((cells.len() as u64 + 1) << 8);
            cells.push(cell(class, scenario, cell_seed));
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
                cell.detail()
            );
        }
        // Nothing is silently skipped either: every cell currently runs.
        assert!(report
            .cells
            .iter()
            .all(|c| matches!(c.status, CellStatus::Pass)));
    }

    /// Pinned to what the commit before the one-audit refactor sent at
    /// seed 2007 — every cell repeated across two of its runs.
    #[test]
    fn cells_at_seed_2007_see_what_the_parent_saw() {
        let seen: Vec<_> = run_error_path_matrix(2007)
            .cells
            .iter()
            .map(|MatrixCell { tally: t, .. }| {
                (t.granted, t.rejected, t.transport_failures + t.crashed)
            })
            .collect();
        let (flash, travel) = ((48, 0, 0), (24, 24, 0));
        let mut pinned = [flash, travel].repeat(5);
        pinned.extend([(18, 30, 0), (16, 32, 0)]);
        assert_eq!(seen, pinned);
    }
}
