//! Shared builders for benchmark fixtures.

use std::sync::Arc;

use promises_core::{CheckStrategy, PoolSchema, PromiseManager, PropertyDef, SystemClock};
use promises_rm::{Record, ResourceManager};
use promises_services::Merchant;

/// A fresh promise manager on its own RM with a wall clock.
fn fresh_pm() -> Arc<PromiseManager> {
    Arc::new(PromiseManager::new(
        Arc::new(ResourceManager::new()),
        Arc::new(SystemClock::new()),
    ))
}

/// A merchant stocked with one SKU.
pub fn merchant_with_stock(sku: &str, qty: u64) -> Merchant {
    let m = Merchant::new(fresh_pm());
    m.stock_sku(sku, qty).expect("fresh merchant");
    m
}

/// A manager with one quantity pool.
pub fn pm_with_qty_pool(pool: &str, qty: u64) -> Arc<PromiseManager> {
    let pm = fresh_pm();
    pm.register_pool(PoolSchema::quantity(pool));
    pm.seed_quantity(pool, qty).expect("fresh pool");
    pm
}

/// A manager with a hotel-style instance pool of `rooms` rooms. Room `i`
/// has `floor = i / 20`, `view = (i % 3 == 0)` and an ordered class.
pub fn pm_with_rooms(pool: &str, rooms: usize, strategy: CheckStrategy) -> Arc<PromiseManager> {
    let pm = fresh_pm();
    pm.register_pool(
        PoolSchema::instances(
            pool,
            vec![
                PropertyDef::plain("floor"),
                PropertyDef::plain("view"),
                PropertyDef::ordered("class", &["standard", "deluxe", "suite"]),
            ],
        )
        .with_strategy(strategy),
    );
    for i in 0..rooms {
        let class = match i % 10 {
            0 => "suite",
            1..=3 => "deluxe",
            _ => "standard",
        };
        pm.seed_instance(
            pool,
            format!("room-{i:05}").as_str(),
            Record::new()
                .with("floor", (i / 20) as i64)
                .with("view", i % 3 == 0)
                .with("class", class),
        )
        .expect("fresh room");
    }
    pm
}
