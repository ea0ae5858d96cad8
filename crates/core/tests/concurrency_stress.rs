//! Concurrency stress tests: many threads hammering one promise manager,
//! verifying the §8 safety guarantees hold under real interleavings.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use promises_core::{
    status, ActionError, Catalog, CheckStrategy, Environment, InstanceId, PoolId, PoolSchema,
    Predicate, PromiseManager, PromiseRequestSpec, PropExpr, PropertyDef, SystemClock,
};
use promises_rm::{Record, ResourceManager};

fn new_pm() -> Arc<PromiseManager> {
    Arc::new(PromiseManager::new(
        Arc::new(ResourceManager::new()),
        Arc::new(SystemClock::new()),
    ))
}

/// Every granted named-room promise must end in exactly one successful
/// booking; no room is ever booked twice.
#[test]
fn named_rooms_booked_exactly_once_under_contention() {
    let pm = new_pm();
    pm.register_pool(
        PoolSchema::instances("rooms", vec![PropertyDef::plain("floor")])
            .with_strategy(CheckStrategy::TentativeAllocation),
    );
    const ROOMS: usize = 24;
    for i in 0..ROOMS {
        pm.seed_instance(
            "rooms",
            format!("r{i}").as_str(),
            Record::new().with("floor", 1i64),
        )
        .unwrap();
    }

    let bookings = Arc::new(AtomicU64::new(0));
    let threads = 8;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let pm = Arc::clone(&pm);
            let bookings = Arc::clone(&bookings);
            scope.spawn(move || {
                for i in 0..ROOMS {
                    let room = format!("r{}", (t * 7 + i) % ROOMS);
                    let resp = pm
                        .request(
                            PromiseRequestSpec::new(
                                promises_core::RequestId(format!("t{t}-{i}")),
                                promises_core::ClientId(format!("t{t}")),
                            )
                            .predicate(Predicate::named("rooms", room.as_str())),
                        )
                        .unwrap();
                    if let Some(p) = resp.decision.granted_id() {
                        // Book it: take the room, release the promise.
                        let table = Catalog::instance_table(&PoolId::from("rooms"));
                        let r = room.clone();
                        pm.execute(&Environment::none().releasing(p), move |rm, txn| {
                            rm.update(txn, &table, &r, |rec| {
                                rec.set(Catalog::STATUS, status::TAKEN);
                            })
                            .map_err(ActionError::from)
                        })
                        .unwrap();
                        bookings.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    // Each of the 24 rooms was promised to exactly one client and taken.
    assert_eq!(bookings.load(Ordering::Relaxed), ROOMS as u64);
    assert_eq!(pm.live_count(), 0);
    let rm = pm.rm();
    let txn = rm.begin();
    let taken = rm
        .scan(&txn, &Catalog::instance_table(&PoolId::from("rooms")))
        .unwrap()
        .into_iter()
        .filter(|(_, r)| r.str(Catalog::STATUS) == Some(status::TAKEN))
        .count();
    rm.commit(txn).unwrap();
    assert_eq!(taken, ROOMS);
    assert_eq!(rm.stats().deadlocks, 0);
}

/// Property-view promises under concurrency: total booked never exceeds
/// the number of matching instances, and no protected booking ever fails.
#[test]
fn property_promises_never_oversell_under_contention() {
    let pm = new_pm();
    pm.register_pool(
        PoolSchema::instances("rooms", vec![PropertyDef::plain("view")])
            .with_strategy(CheckStrategy::TentativeAllocation),
    );
    const VIEW_ROOMS: usize = 10;
    for i in 0..VIEW_ROOMS * 2 {
        pm.seed_instance(
            "rooms",
            format!("r{i}").as_str(),
            Record::new().with("view", i < VIEW_ROOMS),
        )
        .unwrap();
    }

    let booked = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..6 {
            let pm = Arc::clone(&pm);
            let booked = Arc::clone(&booked);
            scope.spawn(move || {
                for i in 0..10 {
                    let resp = pm
                        .request(
                            PromiseRequestSpec::new(
                                promises_core::RequestId(format!("v{t}-{i}")),
                                promises_core::ClientId(format!("t{t}")),
                            )
                            .predicate(Predicate::property(
                                "rooms",
                                PropExpr::eq("view", true),
                                1,
                            )),
                        )
                        .unwrap();
                    if let Some(p) = resp.decision.granted_id() {
                        // Take whichever room the manager allocated to us.
                        let rec = pm.promise(p).expect("just granted");
                        let room = rec.allocated_in(&PoolId::from("rooms"))[0].0.clone();
                        let table = Catalog::instance_table(&PoolId::from("rooms"));
                        pm.execute(&Environment::none().releasing(p), move |rm, txn| {
                            rm.update(txn, &table, &room, |r| {
                                r.set(Catalog::STATUS, status::TAKEN);
                            })
                            .map_err(ActionError::from)
                        })
                        .expect("protected booking must never fail");
                        booked.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert_eq!(
        booked.load(Ordering::Relaxed),
        VIEW_ROOMS as u64,
        "exactly the view rooms get booked, never more"
    );
    assert_eq!(pm.metrics().violations_rolled_back, 0);
    assert_eq!(pm.rm().stats().deadlocks, 0);
}

/// Tightened regression for the observe-then-book race behind the old
/// `property_promises_never_oversell_under_contention` flake: once a
/// client has read its allocation via `PromiseManager::promise`, no
/// concurrent re-arrangement may move that allocation out from under it.
/// Here "shuffler" threads request floor-targeted promises that *need*
/// re-arrangement (both rooms of a floor, one of which a view promise may
/// tentatively hold) while "booker" threads observe and book their view
/// allocations — maximum pressure on exactly the raced path.
#[test]
fn observed_allocations_survive_rearrangement_pressure() {
    let pm = new_pm();
    pm.register_pool(
        PoolSchema::instances(
            "rooms",
            vec![PropertyDef::plain("view"), PropertyDef::plain("floor")],
        )
        .with_strategy(CheckStrategy::TentativeAllocation),
    );
    const FLOORS: usize = 8;
    for f in 0..FLOORS {
        pm.seed_instance(
            "rooms",
            format!("v{f}").as_str(),
            Record::new().with("view", true).with("floor", f as i64),
        )
        .unwrap();
        pm.seed_instance(
            "rooms",
            format!("p{f}").as_str(),
            Record::new().with("view", false).with("floor", f as i64),
        )
        .unwrap();
    }

    let booked = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        // Shufflers: "both rooms of floor f" can only be granted by
        // re-arranging a view promise tentatively holding v{f} onto
        // another view room — unless that allocation is pinned.
        for t in 0..4usize {
            let pm = Arc::clone(&pm);
            scope.spawn(move || {
                for i in 0..40usize {
                    let f = (t * 13 + i * 7) % FLOORS;
                    let resp = pm
                        .request(
                            PromiseRequestSpec::new(
                                promises_core::RequestId(format!("s{t}-{i}")),
                                promises_core::ClientId(format!("s{t}")),
                            )
                            .predicate(Predicate::property(
                                "rooms",
                                PropExpr::eq("floor", f as i64),
                                2,
                            )),
                        )
                        .unwrap();
                    if let Some(p) = resp.decision.granted_id() {
                        pm.release(p).unwrap();
                    }
                }
            });
        }
        // Bookers: observe the allocated room, then take exactly that room.
        // Retry until every view room is booked: a request may be rejected
        // while a shuffler transiently holds a view room, but shufflers
        // terminate, so rejected bookers eventually succeed.
        for t in 0..6usize {
            let pm = Arc::clone(&pm);
            let booked = Arc::clone(&booked);
            scope.spawn(move || {
                let mut i = 0usize;
                while booked.load(Ordering::Relaxed) < FLOORS as u64 && i < 10_000 {
                    i += 1;
                    let resp = pm
                        .request(
                            PromiseRequestSpec::new(
                                promises_core::RequestId(format!("b{t}-{i}")),
                                promises_core::ClientId(format!("b{t}")),
                            )
                            .predicate(Predicate::property(
                                "rooms",
                                PropExpr::eq("view", true),
                                1,
                            )),
                        )
                        .unwrap();
                    if let Some(p) = resp.decision.granted_id() {
                        let rec = pm.promise(p).expect("just granted");
                        let room = rec.allocated_in(&PoolId::from("rooms"))[0].0.clone();
                        let table = Catalog::instance_table(&PoolId::from("rooms"));
                        pm.execute(&Environment::none().releasing(p), move |rm, txn| {
                            rm.update(txn, &table, &room, |r| {
                                r.set(Catalog::STATUS, status::TAKEN);
                            })
                            .map_err(ActionError::from)
                        })
                        .expect("booking an observed allocation must never fail");
                        booked.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert_eq!(
        booked.load(Ordering::Relaxed),
        FLOORS as u64,
        "every view room booked exactly once, never more"
    );
    assert_eq!(pm.metrics().violations_rolled_back, 0);
    // Exactly the view rooms were taken; re-arrangement pressure never
    // redirected a booking onto a non-view room.
    let rm = pm.rm();
    let txn = rm.begin();
    let rooms = rm
        .scan(&txn, &Catalog::instance_table(&PoolId::from("rooms")))
        .unwrap();
    rm.commit(txn).unwrap();
    let taken_view = rooms
        .iter()
        .filter(|(k, r)| k.starts_with('v') && r.str(Catalog::STATUS) == Some(status::TAKEN))
        .count();
    let taken_plain = rooms
        .iter()
        .filter(|(k, r)| k.starts_with('p') && r.str(Catalog::STATUS) == Some(status::TAKEN))
        .count();
    assert_eq!(taken_view, FLOORS, "all view rooms taken");
    assert_eq!(taken_plain, 0, "no non-view room ever taken");
    assert_eq!(rm.stats().deadlocks, 0);
}

/// Sync points before rows: an action that has written its promise's pool
/// row holds that pool's sync point already, so a grant on the pool waits
/// for the point and reads the row only after the action commits. Were the
/// point taken after the action ran, the grant would hold the point and
/// wait for the row while the action waited for the point: a deadlock.
#[test]
fn an_action_holds_its_scope_before_a_grant_reads_its_rows() {
    let pm = new_pm();
    pm.register_pool(PoolSchema::quantity("stock"));
    pm.seed_quantity("stock", 10).unwrap();
    let held = pm
        .request(
            PromiseRequestSpec::new("hold", "a").predicate(Predicate::qty_at_least("stock", 3)),
        )
        .unwrap()
        .decision
        .granted_id()
        .expect("stock covers the hold");
    let barrier = Barrier::new(2);
    let first_run = AtomicBool::new(true);
    let (sold, answer) = std::thread::scope(|scope| {
        let seller = scope.spawn(|| {
            pm.execute(&Environment::none().releasing(held), |rm, txn| {
                rm.update(txn, Catalog::QTY_TABLE, "stock", |r| {
                    let q = r.int("qty").unwrap();
                    r.set("qty", q - 3);
                })?;
                // Only the first run waits, so a re-run cannot hang.
                if first_run.swap(false, Ordering::SeqCst) {
                    barrier.wait();
                    std::thread::sleep(Duration::from_millis(50));
                }
                Ok(())
            })
        });
        let buyer = scope.spawn(|| {
            barrier.wait();
            pm.request(
                PromiseRequestSpec::new("grab", "b").predicate(Predicate::qty_at_least("stock", 2)),
            )
        });
        (seller.join().unwrap(), buyer.join().unwrap())
    });
    assert_eq!(pm.rm().stats().deadlocks, 0, "no lock-order inversion");
    sold.expect("the sale commits");
    assert!(answer.expect("the grant is answered").decision.is_granted());
}

/// Mixed grants, releases, violating rogue writes and expiries running
/// together: the manager must end consistent (every untaken item free
/// again, no negative stock, no live promises).
#[test]
fn mixed_chaos_ends_consistent() {
    let pm = new_pm();
    pm.register_pool(PoolSchema::quantity("stock"));
    pm.seed_quantity("stock", 1_000).unwrap();
    pm.register_pool(
        PoolSchema::instances("items", vec![PropertyDef::plain("grade")])
            .with_strategy(CheckStrategy::TentativeAllocation),
    );
    for i in 0..12 {
        pm.seed_instance(
            "items",
            format!("i{i}").as_str(),
            Record::new().with("grade", 1i64),
        )
        .unwrap();
    }

    std::thread::scope(|scope| {
        for t in 0..6 {
            let pm = Arc::clone(&pm);
            scope.spawn(move || {
                for i in 0..25 {
                    match (t + i) % 4 {
                        0 => {
                            // Quantity promise, consume under it.
                            let resp = pm
                                .request(
                                    PromiseRequestSpec::new(
                                        promises_core::RequestId(format!("q{t}-{i}")),
                                        promises_core::ClientId("chaos".into()),
                                    )
                                    .predicate(Predicate::qty_at_least("stock", 3)),
                                )
                                .unwrap();
                            if let Some(p) = resp.decision.granted_id() {
                                pm.execute(&Environment::none().releasing(p), |rm, txn| {
                                    rm.update(txn, Catalog::QTY_TABLE, "stock", |r| {
                                        let q = r.int("qty").unwrap();
                                        r.set("qty", q - 3);
                                    })
                                    .map_err(ActionError::from)
                                })
                                .unwrap();
                            }
                        }
                        1 => {
                            // Item promise then release.
                            let resp = pm
                                .request(
                                    PromiseRequestSpec::new(
                                        promises_core::RequestId(format!("p{t}-{i}")),
                                        promises_core::ClientId("chaos".into()),
                                    )
                                    .predicate(Predicate::property("items", PropExpr::True, 2)),
                                )
                                .unwrap();
                            if let Some(p) = resp.decision.granted_id() {
                                pm.release(p).unwrap();
                            }
                        }
                        2 => {
                            // Rogue unprotected write: may be rolled back.
                            let _ = pm.execute(&Environment::none(), |rm, txn| {
                                rm.update(txn, Catalog::QTY_TABLE, "stock", |r| {
                                    let q = r.int("qty").unwrap();
                                    r.set("qty", q - 10);
                                })
                                .map_err(ActionError::from)
                            });
                        }
                        _ => {
                            // Benign write (restock) never violates.
                            pm.execute(&Environment::none(), |rm, txn| {
                                rm.update(txn, Catalog::QTY_TABLE, "stock", |r| {
                                    let q = r.int("qty").unwrap();
                                    r.set("qty", q + 1);
                                })
                                .map_err(ActionError::from)
                            })
                            .unwrap();
                        }
                    }
                }
            });
        }
    });

    assert_eq!(pm.live_count(), 0, "all promises settled");
    let rm = pm.rm();
    let txn = rm.begin();
    let stock = rm
        .get(&txn, Catalog::QTY_TABLE, "stock")
        .unwrap()
        .unwrap()
        .int("qty")
        .unwrap();
    assert!(stock >= 0, "stock never negative (got {stock})");
    // Every item nobody took is free again once all promises settled.
    let untaken: Vec<InstanceId> = rm
        .scan(&txn, &Catalog::instance_table(&PoolId::from("items")))
        .unwrap()
        .into_iter()
        .filter(|(_, r)| r.str(Catalog::STATUS) != Some(status::TAKEN))
        .map(|(id, _)| InstanceId(id))
        .collect();
    rm.commit(txn).unwrap();
    assert_eq!(untaken.len(), 12, "no item is ever taken");
    assert_eq!(
        pm.free_instances("items").unwrap(),
        untaken,
        "no orphaned tentative allocations"
    );
    assert_eq!(rm.locked_granules(), 0, "no leaked locks");
}
