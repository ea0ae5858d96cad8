//! Integration tests for the promise manager: the paper's §2–§5 semantics
//! exercised end-to-end against the embedded resource manager.

use std::sync::Arc;

use promises_core::{
    status, Catalog, CheckStrategy, ClientId, Environment, InstanceId, ManualClock, PoolId,
    PoolSchema, Predicate, PromiseDecision, PromiseError, PromiseJournal, PromiseManager,
    PromiseRequestSpec, PropExpr, PropertyDef, RejectReason,
};
use promises_rm::{Record, ResourceManager};

fn new_pm() -> (Arc<PromiseManager>, Arc<ManualClock>) {
    let rm = Arc::new(ResourceManager::new());
    let clock = Arc::new(ManualClock::new());
    let pm = Arc::new(PromiseManager::new(rm, Arc::clone(&clock) as _));
    (pm, clock)
}

fn spec(req: &str, preds: Vec<Predicate>) -> PromiseRequestSpec {
    let mut s = PromiseRequestSpec::new(req, "client");
    s.predicates = preds;
    s
}

fn grant(pm: &PromiseManager, req: &str, preds: Vec<Predicate>) -> promises_core::PromiseId {
    pm.request(spec(req, preds))
        .unwrap()
        .decision
        .granted_id()
        .unwrap_or_else(|| panic!("request {req} should be granted"))
}

fn reject_reason(pm: &PromiseManager, req: &str, preds: Vec<Predicate>) -> RejectReason {
    match pm.request(spec(req, preds)).unwrap().decision {
        PromiseDecision::Rejected { reason } => reason,
        PromiseDecision::Granted { .. } => panic!("request {req} should be rejected"),
    }
}

fn widgets_pm(initial: u64) -> Arc<PromiseManager> {
    let (pm, _) = new_pm();
    pm.register_pool(PoolSchema::quantity("widgets"));
    pm.seed_quantity("widgets", initial).unwrap();
    pm
}

fn hotel_pm(strategy: CheckStrategy) -> Arc<PromiseManager> {
    hotel_on(new_pm().0, strategy)
}

/// Registers the rooms pool on `pm` under `strategy` and seeds three rooms.
fn hotel_on(pm: Arc<PromiseManager>, strategy: CheckStrategy) -> Arc<PromiseManager> {
    pm.register_pool(
        PoolSchema::instances(
            "rooms",
            vec![
                PropertyDef::plain("floor"),
                PropertyDef::plain("view"),
                PropertyDef::ordered("class", &["standard", "deluxe", "suite"]),
            ],
        )
        .with_strategy(strategy),
    );
    // Room 512: 5th floor with view; 610: view, 6th floor; 101: neither.
    for (id, floor, view, class) in [
        ("512", 5i64, true, "standard"),
        ("610", 6i64, true, "deluxe"),
        ("101", 1i64, false, "standard"),
    ] {
        pm.seed_instance(
            "rooms",
            id,
            Record::new()
                .with("floor", floor)
                .with("view", view)
                .with("class", class),
        )
        .unwrap();
    }
    pm
}

// ---------------------------------------------------------------------
// Anonymous view (§3.1)
// ---------------------------------------------------------------------

#[test]
fn anonymous_grants_until_quantity_exhausted() {
    let pm = widgets_pm(10);
    grant(&pm, "a", vec![Predicate::qty_at_least("widgets", 5)]);
    grant(&pm, "b", vec![Predicate::qty_at_least("widgets", 5)]);
    let reason = reject_reason(&pm, "c", vec![Predicate::qty_at_least("widgets", 1)]);
    assert!(matches!(
        reason,
        RejectReason::InsufficientQuantity {
            on_hand: 10,
            demanded: 11,
            ..
        }
    ));
    assert_eq!(pm.live_count(), 2);
    assert_eq!(pm.metrics().granted, 2);
    assert_eq!(pm.metrics().rejected, 1);
}

#[test]
fn release_frees_anonymous_capacity() {
    let pm = widgets_pm(10);
    let a = grant(&pm, "a", vec![Predicate::qty_at_least("widgets", 10)]);
    assert!(matches!(
        reject_reason(&pm, "b", vec![Predicate::qty_at_least("widgets", 1)]),
        RejectReason::InsufficientQuantity { .. }
    ));
    pm.release(a).unwrap();
    grant(&pm, "c", vec![Predicate::qty_at_least("widgets", 10)]);
}

#[test]
fn figure1_order_flow_purchase_under_promise_with_release() {
    // The Figure 1 walkthrough: promise 5 widgets, buy them, release.
    let pm = widgets_pm(7);
    let p = grant(&pm, "order", vec![Predicate::qty_at_least("widgets", 5)]);
    // A concurrent order for the remaining 2 can coexist.
    grant(&pm, "other", vec![Predicate::qty_at_least("widgets", 2)]);
    // Purchase: decrement stock by 5 and release atomically.
    pm.execute(&Environment::none().releasing(p), |rm, txn| {
        rm.update(txn, Catalog::QTY_TABLE, "widgets", |r| {
            let q = r.int("qty").unwrap();
            r.set("qty", q - 5);
        })
        .map_err(promises_core::ActionError::from)
    })
    .unwrap();
    assert_eq!(pm.live_count(), 1);
    // Remaining stock (2) still covers the other promise, but nothing more.
    assert!(matches!(
        reject_reason(&pm, "late", vec![Predicate::qty_at_least("widgets", 1)]),
        RejectReason::InsufficientQuantity {
            on_hand: 2,
            demanded: 3,
            ..
        }
    ));
}

#[test]
fn unprotected_action_violating_promise_is_rolled_back() {
    let pm = widgets_pm(10);
    let p = grant(&pm, "a", vec![Predicate::qty_at_least("widgets", 8)]);
    // A rogue action (no environment) tries to take 5: would leave 5 < 8.
    let err = pm
        .execute(&Environment::none(), |rm, txn| {
            rm.update(txn, Catalog::QTY_TABLE, "widgets", |r| {
                let q = r.int("qty").unwrap();
                r.set("qty", q - 5);
            })
            .map_err(promises_core::ActionError::from)
        })
        .unwrap_err();
    match err {
        PromiseError::ViolationRolledBack { violated, .. } => assert_eq!(violated, p),
        other => panic!("expected violation, got {other:?}"),
    }
    // State was rolled back.
    let rm = pm.rm();
    let txn = rm.begin();
    assert_eq!(
        rm.get(&txn, Catalog::QTY_TABLE, "widgets")
            .unwrap()
            .unwrap()
            .int("qty"),
        Some(10)
    );
    rm.commit(txn).unwrap();
    assert_eq!(pm.metrics().violations_rolled_back, 1);
}

#[test]
fn action_within_unpromised_slack_is_allowed() {
    let pm = widgets_pm(10);
    grant(&pm, "a", vec![Predicate::qty_at_least("widgets", 4)]);
    // Taking 6 leaves exactly 4: allowed.
    pm.execute(&Environment::none(), |rm, txn| {
        rm.update(txn, Catalog::QTY_TABLE, "widgets", |r| {
            let q = r.int("qty").unwrap();
            r.set("qty", q - 6);
        })
        .map_err(promises_core::ActionError::from)
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Named view (§3.2)
// ---------------------------------------------------------------------

#[test]
fn named_instance_promised_once_only() {
    for strategy in [
        CheckStrategy::Satisfiability,
        CheckStrategy::AllocatedTags,
        CheckStrategy::TentativeAllocation,
    ] {
        let pm = hotel_pm(strategy);
        grant(&pm, "a", vec![Predicate::named("rooms", "512")]);
        let reason = reject_reason(&pm, "b", vec![Predicate::named("rooms", "512")]);
        assert!(
            matches!(
                reason,
                RejectReason::InstanceUnavailable { .. } | RejectReason::Unsatisfiable { .. }
            ),
            "strategy {strategy:?}: got {reason:?}"
        );
        // A different room is still promisable.
        grant(&pm, "c", vec![Predicate::named("rooms", "610")]);
    }
}

#[test]
fn named_promise_excluded_from_property_pool_count() {
    // §3.2: a seat promised by name must not be counted toward an
    // anonymous/property promise over the same pool.
    let pm = hotel_pm(CheckStrategy::Satisfiability);
    grant(&pm, "named", vec![Predicate::named("rooms", "512")]);
    // Only 610 still has a view.
    grant(
        &pm,
        "view1",
        vec![Predicate::property("rooms", PropExpr::eq("view", true), 1)],
    );
    let reason = reject_reason(
        &pm,
        "view2",
        vec![Predicate::property("rooms", PropExpr::eq("view", true), 1)],
    );
    assert!(matches!(reason, RejectReason::Unsatisfiable { .. }));
}

#[test]
fn taken_instance_cannot_be_promised() {
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    // Take room 512 directly (unprotected but violating nothing).
    pm.execute(&Environment::none(), |rm, txn| {
        rm.update(txn, &Catalog::instance_table(&"rooms".into()), "512", |r| {
            r.set(Catalog::STATUS, status::TAKEN);
        })
        .map_err(promises_core::ActionError::from)
    })
    .unwrap();
    let reason = reject_reason(&pm, "a", vec![Predicate::named("rooms", "512")]);
    assert!(matches!(reason, RejectReason::InstanceUnavailable { .. }));
}

// ---------------------------------------------------------------------
// Property view (§3.3) and §5 strategies
// ---------------------------------------------------------------------

#[test]
fn paper_example_view_then_fifth_floor() {
    // §5 tentative allocation: a view request may grab 512; the 5th-floor
    // request must still be granted by re-arranging.
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    grant(
        &pm,
        "view",
        vec![Predicate::property("rooms", PropExpr::eq("view", true), 1)],
    );
    grant(
        &pm,
        "fifth",
        vec![Predicate::property("rooms", PropExpr::eq("floor", 5i64), 1)],
    );
    // 512 is the only 5th-floor room, so it must now be held by "fifth".
}

#[test]
fn satisfiability_grants_what_rearrangement_allows() {
    let pm = hotel_pm(CheckStrategy::Satisfiability);
    grant(
        &pm,
        "view",
        vec![Predicate::property("rooms", PropExpr::eq("view", true), 1)],
    );
    grant(
        &pm,
        "fifth",
        vec![Predicate::property("rooms", PropExpr::eq("floor", 5i64), 1)],
    );
}

#[test]
fn allocated_tags_strategy_may_reject_feasible_requests() {
    // The strict tag strategy never re-arranges: if the view request was
    // allocated room 512 (the scan order favours 101 < 512 < 610, and 512
    // is the first matching view room), the 5th-floor request fails even
    // though re-arrangement could satisfy it.
    let pm = hotel_pm(CheckStrategy::AllocatedTags);
    grant(
        &pm,
        "view",
        vec![Predicate::property("rooms", PropExpr::eq("view", true), 1)],
    );
    let decision = pm
        .request(spec(
            "fifth",
            vec![Predicate::property("rooms", PropExpr::eq("floor", 5i64), 1)],
        ))
        .unwrap()
        .decision;
    assert!(
        !decision.is_granted(),
        "strict tags allocated 512 to the view request and cannot re-arrange"
    );
}

#[test]
fn multi_instance_property_promise_needs_distinct_rooms() {
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    grant(
        &pm,
        "two-rooms",
        vec![Predicate::property("rooms", PropExpr::True, 2)],
    );
    grant(
        &pm,
        "one-more",
        vec![Predicate::property("rooms", PropExpr::True, 1)],
    );
    let reason = reject_reason(
        &pm,
        "overflow",
        vec![Predicate::property("rooms", PropExpr::True, 1)],
    );
    assert!(matches!(reason, RejectReason::Unsatisfiable { .. }));
}

/// §2 "reject immediately": `amount` and `count` come straight off the
/// wire, so an ask for more instances than the pool holds must cost a
/// refusal, not a slot per unit asked.
#[test]
fn an_over_ask_on_an_instance_pool_is_refused_at_once() {
    let over_asks = || {
        [
            Predicate::qty_at_least("rooms", u64::MAX),
            Predicate::property("rooms", PropExpr::eq("view", true), u32::MAX),
        ]
    };
    let refused_at_once = |pm: &PromiseManager, when: &str| {
        for pred in over_asks() {
            // Refusals leave nothing behind, so the fastest of three is a
            // fair reading on a busy machine.
            let fastest = (0..3)
                .map(|_| {
                    let started = std::time::Instant::now();
                    let reason = reject_reason(pm, "over", vec![pred.clone()]);
                    assert_eq!(
                        reason,
                        RejectReason::Unsatisfiable {
                            pool: "rooms".into()
                        },
                        "{pred} {when}"
                    );
                    started.elapsed()
                })
                .min()
                .unwrap();
            assert!(
                fastest < std::time::Duration::from_millis(10),
                "{pred} {when} took {fastest:?} to refuse"
            );
        }
    };
    for strategy in [
        CheckStrategy::Satisfiability,
        CheckStrategy::AllocatedTags,
        CheckStrategy::TentativeAllocation,
    ] {
        let pm = hotel_pm(strategy);
        refused_at_once(&pm, "alone");
        let held = grant(
            &pm,
            "held",
            vec![Predicate::property("rooms", PropExpr::True, 2)],
        );
        refused_at_once(&pm, "beside a live promise");
        assert_eq!(pm.live_count(), 1);
        // One more than fits is the same refusal; what fits is granted.
        assert_eq!(
            reject_reason(&pm, "two", vec![Predicate::qty_at_least("rooms", 2)]),
            RejectReason::Unsatisfiable {
                pool: "rooms".into()
            }
        );
        grant(&pm, "one", vec![Predicate::qty_at_least("rooms", 1)]);
        pm.release(held).unwrap();
    }
}

#[test]
fn ordered_or_better_promise() {
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    // Two deluxe-or-better promises: 610 (deluxe) is the only match among
    // 512/101 (standard) — second must fail.
    grant(
        &pm,
        "a",
        vec![Predicate::property(
            "rooms",
            PropExpr::at_least("class", "deluxe"),
            1,
        )],
    );
    let reason = reject_reason(
        &pm,
        "b",
        vec![Predicate::property(
            "rooms",
            PropExpr::at_least("class", "deluxe"),
            1,
        )],
    );
    assert!(matches!(reason, RejectReason::Unsatisfiable { .. }));
}

#[test]
fn taking_a_promised_room_under_release_succeeds() {
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    let p = grant(&pm, "book", vec![Predicate::named("rooms", "512")]);
    pm.execute(&Environment::none().releasing(p), |rm, txn| {
        rm.update(txn, &Catalog::instance_table(&"rooms".into()), "512", |r| {
            r.set(Catalog::STATUS, status::TAKEN);
        })
        .map_err(promises_core::ActionError::from)
    })
    .unwrap();
    assert_eq!(pm.live_count(), 0);
    // 512 is gone for good.
    let reason = reject_reason(&pm, "again", vec![Predicate::named("rooms", "512")]);
    assert!(matches!(reason, RejectReason::InstanceUnavailable { .. }));
}

#[test]
fn taking_someone_elses_promised_room_rolls_back() {
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    let p = grant(&pm, "book", vec![Predicate::named("rooms", "512")]);
    let err = pm
        .execute(&Environment::none(), |rm, txn| {
            rm.update(txn, &Catalog::instance_table(&"rooms".into()), "512", |r| {
                r.set(Catalog::STATUS, status::TAKEN);
            })
            .map_err(promises_core::ActionError::from)
        })
        .unwrap_err();
    assert!(matches!(err, PromiseError::ViolationRolledBack { violated, .. } if violated == p));
    // The room is untaken again (rollback restored it) and still promised.
    let rm = pm.rm();
    let txn = rm.begin();
    let rec = rm
        .get(&txn, &Catalog::instance_table(&"rooms".into()), "512")
        .unwrap()
        .unwrap();
    assert_eq!(rec.str(Catalog::STATUS), Some(status::AVAILABLE));
    rm.commit(txn).unwrap();
    let free = pm.free_instances("rooms").unwrap();
    assert!(!free.contains(&InstanceId::from("512")), "{free:?}");
}

/// Every instance record as stored, in id order.
fn rooms_stored(pm: &PromiseManager) -> Vec<(String, Record)> {
    let rm = pm.rm();
    let txn = rm.begin();
    let rooms = rm.scan(&txn, "inst:rooms").unwrap();
    rm.commit(txn).unwrap();
    rooms
}

/// Who holds a room lives in the promise records alone: a grant, a
/// re-arrangement that moves an existing allocation, and releases leave
/// every room record exactly as seeded.
#[test]
fn allocations_leave_the_room_records_as_seeded() {
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    let seeded = rooms_stored(&pm);
    let holds = |id| pm.peek_promise(id).unwrap().allocations[0].instance.clone();
    let view = grant(
        &pm,
        "view",
        vec![Predicate::property("rooms", PropExpr::eq("view", true), 1)],
    );
    assert_eq!(holds(view), InstanceId::from("512"));
    assert_eq!(rooms_stored(&pm), seeded, "after a grant");
    let named = grant(&pm, "named", vec![Predicate::named("rooms", "512")]);
    assert_eq!(holds(view), InstanceId::from("610"), "re-arranged");
    assert_eq!(rooms_stored(&pm), seeded, "after a re-arrangement");
    pm.release(view).unwrap();
    pm.release(named).unwrap();
    assert_eq!(rooms_stored(&pm), seeded, "after the releases");
}

/// A manager recovered from the journal over fresh storage refuses a
/// named ask for a room a recovered promise holds, under both strategies
/// that allocate: the holder is read from the recovered records, not from
/// a mark the old storage kept.
#[test]
fn a_recovered_holder_keeps_its_room_over_fresh_storage() {
    for strategy in [
        CheckStrategy::AllocatedTags,
        CheckStrategy::TentativeAllocation,
    ] {
        let clock = Arc::new(ManualClock::new());
        let fresh = || PromiseManager::new(Arc::new(ResourceManager::new()), clock.clone() as _);
        let journal = Arc::new(PromiseJournal::new());
        let pm1 = hotel_on(Arc::new(fresh().with_journal(journal.clone())), strategy);
        let held = grant(&pm1, "first", vec![Predicate::named("rooms", "101")]);
        let reason = reject_reason(&pm1, "second", vec![Predicate::named("rooms", "101")]);
        assert!(
            matches!(reason, RejectReason::InstanceUnavailable { .. }),
            "{strategy:?}"
        );

        let pm2 = hotel_on(Arc::new(fresh()), strategy);
        let lines = PromiseJournal::from_lines(&journal.lines()).unwrap();
        assert_eq!(pm2.recover(Arc::new(lines)).unwrap().recovered, 1);
        assert!(pm2.peek_promise(held).is_some());
        let reason = reject_reason(&pm2, "second", vec![Predicate::named("rooms", "101")]);
        assert!(
            matches!(reason, RejectReason::InstanceUnavailable { .. }),
            "{strategy:?}: {reason:?}"
        );
        let free = pm2.free_instances("rooms").unwrap();
        assert_eq!(free, [InstanceId::from("512"), InstanceId::from("610")]);
    }
}

#[test]
fn post_action_rearrangement_absorbs_property_change() {
    // A promise for "a view room" is tentatively on some room; if an
    // action takes the *other* view room outright, re-arrangement keeps
    // the promise satisfiable... unless no view room remains.
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    grant(
        &pm,
        "view",
        vec![Predicate::property("rooms", PropExpr::eq("view", true), 1)],
    );
    // Take room 610 (a view room the promise may or may not hold).
    pm.execute(&Environment::none(), |rm, txn| {
        rm.update(txn, &Catalog::instance_table(&"rooms".into()), "610", |r| {
            r.set(Catalog::STATUS, status::TAKEN);
        })
        .map_err(promises_core::ActionError::from)
    })
    .unwrap();
    // Now only 512 has a view and it must be promised to "view".
    let reason = reject_reason(&pm, "fifth", vec![Predicate::named("rooms", "512")]);
    assert!(matches!(
        reason,
        RejectReason::InstanceUnavailable { .. } | RejectReason::Unsatisfiable { .. }
    ));
}

// ---------------------------------------------------------------------
// §4 atomicity
// ---------------------------------------------------------------------

#[test]
fn multi_predicate_request_is_all_or_nothing() {
    let (pm, _) = new_pm();
    pm.register_pool(PoolSchema::quantity("flights"));
    pm.register_pool(PoolSchema::quantity("cars"));
    pm.seed_quantity("flights", 1).unwrap();
    pm.seed_quantity("cars", 0).unwrap();
    //

    let reason = reject_reason(
        &pm,
        "travel",
        vec![
            Predicate::qty_at_least("flights", 1),
            Predicate::qty_at_least("cars", 1),
        ],
    );
    assert!(matches!(reason, RejectReason::InsufficientQuantity { .. }));
    // The flight was NOT partially promised.
    grant(
        &pm,
        "flight-only",
        vec![Predicate::qty_at_least("flights", 1)],
    );
}

#[test]
fn failed_action_retains_promises_scheduled_for_release() {
    // §4: "if the purchase fails ... the promise should remain in force."
    let pm = widgets_pm(10);
    let p = grant(&pm, "a", vec![Predicate::qty_at_least("widgets", 5)]);
    let err = pm
        .execute(&Environment::none().releasing(p), |_rm, _txn| {
            Err::<(), _>(promises_core::ActionError::App(
                "no shipper available today".into(),
            ))
        })
        .unwrap_err();
    assert!(matches!(err, PromiseError::ActionFailed(_)));
    assert_eq!(pm.live_count(), 1, "promise retained after action failure");
    assert_eq!(pm.metrics().action_failures, 1);
}

#[test]
fn modify_upgrades_atomically_without_double_counting() {
    // §4: balance>=100 upgraded to balance>=200 must not require 300.
    let (pm, _) = new_pm();
    pm.register_pool(PoolSchema::quantity("balance"));
    pm.seed_quantity("balance", 200).unwrap();
    let old = grant(
        &pm,
        "hold-100",
        vec![Predicate::qty_at_least("balance", 100)],
    );
    let resp = pm
        .modify(
            &[old],
            spec("hold-200", vec![Predicate::qty_at_least("balance", 200)]),
        )
        .unwrap();
    assert!(
        resp.decision.is_granted(),
        "upgrade within funds must grant"
    );
    assert_eq!(pm.live_count(), 1, "old promise released atomically");
}

#[test]
fn failed_modify_retains_old_promise() {
    let (pm, _) = new_pm();
    pm.register_pool(PoolSchema::quantity("balance"));
    pm.seed_quantity("balance", 150).unwrap();
    let old = grant(
        &pm,
        "hold-100",
        vec![Predicate::qty_at_least("balance", 100)],
    );
    let resp = pm
        .modify(
            &[old],
            spec("hold-200", vec![Predicate::qty_at_least("balance", 200)]),
        )
        .unwrap();
    assert!(!resp.decision.is_granted());
    assert!(pm.promise(old).is_some(), "old promise retained on failure");
    // Weakening still works.
    let resp = pm
        .modify(
            &[old],
            spec("hold-50", vec![Predicate::qty_at_least("balance", 50)]),
        )
        .unwrap();
    assert!(resp.decision.is_granted());
    assert!(pm.promise(old).is_none());
}

#[test]
fn modify_with_unknown_exchange_rejects() {
    let pm = widgets_pm(10);
    let resp = pm
        .modify(
            &[promises_core::PromiseId(999)],
            spec("x", vec![Predicate::qty_at_least("widgets", 1)]),
        )
        .unwrap();
    assert!(matches!(
        resp.decision,
        PromiseDecision::Rejected {
            reason: RejectReason::UnknownExchange(_)
        }
    ));
}

#[test]
fn modify_tagged_promise_reuses_its_own_instances() {
    // Exchanging a 2-room promise for a 3-room promise must reuse the two
    // rooms the old promise held.
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    let old = grant(
        &pm,
        "two",
        vec![Predicate::property("rooms", PropExpr::True, 2)],
    );
    let resp = pm
        .modify(
            &[old],
            spec(
                "three",
                vec![Predicate::property("rooms", PropExpr::True, 3)],
            ),
        )
        .unwrap();
    assert!(resp.decision.is_granted());
    assert_eq!(pm.live_count(), 1);
}

// ---------------------------------------------------------------------
// Expiry (§2/§6)
// ---------------------------------------------------------------------

#[test]
fn expired_promise_gives_promise_expired_error() {
    let (pm, clock) = new_pm();
    pm.register_pool(PoolSchema::quantity("widgets"));
    pm.seed_quantity("widgets", 10).unwrap();
    let resp = pm
        .request(spec("a", vec![Predicate::qty_at_least("widgets", 5)]).duration_ms(1_000))
        .unwrap();
    let p = resp.decision.granted_id().unwrap();
    clock.advance(2_000);
    let err = pm
        .execute(&Environment::none().under(p), |_rm, _txn| Ok(()))
        .unwrap_err();
    assert!(matches!(err, PromiseError::PromiseExpired(id) if id == p));
    assert!(pm.metrics().expired_errors >= 1);
}

/// One reaped id, one answer: while its tombstone lasts, `release` says
/// "expired" like `execute` and `commit_prepared` do (it used to say
/// "unknown"); once the grace has passed all three say "unknown".
#[test]
fn release_of_a_reaped_promise_gives_promise_expired_until_the_grace_passes() {
    let rm = Arc::new(ResourceManager::new());
    let clock = Arc::new(ManualClock::new());
    let pm = PromiseManager::new(rm, clock.clone()).with_tombstone_grace_ms(500);
    pm.register_pool(PoolSchema::quantity("widgets"));
    pm.seed_quantity("widgets", 10).unwrap();
    let resp = pm
        .request(spec("a", vec![Predicate::qty_at_least("widgets", 5)]).duration_ms(1_000))
        .unwrap();
    let p = resp.decision.granted_id().unwrap();
    clock.advance(1_000);
    assert_eq!(pm.prune_expired().unwrap(), 1);

    let under = Environment::none().under(p);
    let expired = |e: PromiseError| matches!(e, PromiseError::PromiseExpired(id) if id == p);
    assert!(expired(pm.release(p).unwrap_err()));
    assert!(expired(pm.commit_prepared(p).unwrap_err()));
    assert!(expired(pm.execute(&under, |_, _| Ok(())).unwrap_err()));
    assert_eq!(pm.abort_prepared(p), Ok(false));

    clock.advance(500);
    pm.prune_expired().unwrap();
    let unknown = |e: PromiseError| matches!(e, PromiseError::UnknownPromise(id) if id == p);
    assert!(unknown(pm.release(p).unwrap_err()));
    assert!(unknown(pm.commit_prepared(p).unwrap_err()));
    assert!(unknown(pm.execute(&under, |_, _| Ok(())).unwrap_err()));
    assert_eq!(pm.abort_prepared(p), Ok(false));
}

#[test]
fn expiry_frees_capacity_and_tags() {
    let (pm, clock) = new_pm();
    pm.register_pool(PoolSchema::quantity("widgets"));
    pm.seed_quantity("widgets", 10).unwrap();
    pm.register_pool(
        PoolSchema::instances("rooms", vec![PropertyDef::plain("floor")])
            .with_strategy(CheckStrategy::TentativeAllocation),
    );
    pm.seed_instance("rooms", "r1", Record::new().with("floor", 1i64))
        .unwrap();

    pm.request(
        spec(
            "short",
            vec![
                Predicate::qty_at_least("widgets", 10),
                Predicate::named("rooms", "r1"),
            ],
        )
        .duration_ms(1_000),
    )
    .unwrap()
    .decision
    .granted_id()
    .unwrap();

    // While live, everything is booked out.
    assert!(matches!(
        reject_reason(&pm, "b", vec![Predicate::qty_at_least("widgets", 1)]),
        RejectReason::InsufficientQuantity { .. }
    ));
    clock.advance(5_000);
    // Lazy pruning frees both quantity and the tagged room.
    grant(&pm, "c", vec![Predicate::qty_at_least("widgets", 10)]);
    grant(&pm, "d", vec![Predicate::named("rooms", "r1")]);
    assert_eq!(pm.metrics().expired_reaped, 1);
}

#[test]
fn manager_caps_duration() {
    let rm = Arc::new(ResourceManager::new());
    let clock = Arc::new(ManualClock::new());
    let pm = PromiseManager::new(rm, clock).with_max_duration_ms(500);
    pm.register_pool(PoolSchema::quantity("w"));
    pm.seed_quantity("w", 1).unwrap();
    let resp = pm
        .request(spec("a", vec![Predicate::qty_at_least("w", 1)]).duration_ms(1_000_000))
        .unwrap();
    match resp.decision {
        PromiseDecision::Granted { expires_at, .. } => {
            assert_eq!(expires_at, 500, "granted duration shortened by manager")
        }
        _ => panic!("should grant"),
    }
}

// ---------------------------------------------------------------------
// Delegation (§5)
// ---------------------------------------------------------------------

fn delegated_pair() -> (Arc<PromiseManager>, Arc<PromiseManager>) {
    // Distributor holds the actual stock; merchant delegates backorders.
    let (distributor, _) = new_pm();
    distributor.register_pool(PoolSchema::quantity("backorders"));
    distributor.seed_quantity("backorders", 5).unwrap();

    let (merchant, _) = new_pm();
    merchant.register_pool(PoolSchema::quantity("stock"));
    merchant.seed_quantity("stock", 2).unwrap();
    merchant
        .delegate_pool("backorders", Arc::clone(&distributor))
        .unwrap();
    (merchant, distributor)
}

#[test]
fn delegated_promise_backed_by_upstream() {
    let (merchant, distributor) = delegated_pair();
    let p = grant(
        &merchant,
        "order",
        vec![
            Predicate::qty_at_least("stock", 2),
            Predicate::qty_at_least("backorders", 3),
        ],
    );
    assert_eq!(distributor.live_count(), 1, "upstream promise exists");
    merchant.release(p).unwrap();
    assert_eq!(distributor.live_count(), 0, "release cascades upstream");
}

#[test]
fn upstream_rejection_rejects_whole_request_and_compensates() {
    let (merchant, distributor) = delegated_pair();
    let reason = reject_reason(
        &merchant,
        "big",
        vec![
            Predicate::qty_at_least("stock", 1),
            Predicate::qty_at_least("backorders", 100),
        ],
    );
    assert!(matches!(reason, RejectReason::UpstreamRejected { .. }));
    assert_eq!(distributor.live_count(), 0);
    assert_eq!(merchant.live_count(), 0);
}

/// front → mid → back, the stock at back: two hops of delegation, so
/// every grant and release has to cascade through a manager that holds
/// nothing itself.
fn delegation_chain() -> [Arc<PromiseManager>; 3] {
    let back = widgets_pm(5);
    let (mid, _) = new_pm();
    mid.delegate_pool("widgets", Arc::clone(&back)).unwrap();
    let (front, _) = new_pm();
    front.delegate_pool("widgets", Arc::clone(&mid)).unwrap();
    [front, mid, back]
}

fn live_counts(chain: &[Arc<PromiseManager>; 3]) -> [usize; 3] {
    chain.each_ref().map(|pm| pm.live_count())
}

#[test]
fn delegation_cascades_through_a_two_hop_chain() {
    let chain = delegation_chain();
    let p = grant(
        &chain[0],
        "order",
        vec![Predicate::qty_at_least("widgets", 3)],
    );
    assert_eq!(live_counts(&chain), [1, 1, 1], "one promise at each level");
    chain[0].release(p).unwrap();
    assert_eq!(live_counts(&chain), [0, 0, 0], "release cascades to back");
}

#[test]
fn rejection_at_the_end_of_a_chain_reaches_the_front() {
    let chain = delegation_chain();
    let reason = reject_reason(
        &chain[0],
        "too-many",
        vec![Predicate::qty_at_least("widgets", 6)],
    );
    assert!(
        matches!(reason, RejectReason::UpstreamRejected { .. }),
        "{reason:?}"
    );
    assert_eq!(live_counts(&chain), [0, 0, 0], "nothing left live anywhere");
}

/// §5 delegation is a DAG: a delegation whose upstream chain leads back to
/// the delegating manager is refused with a typed error and leaves the
/// routing as it was, so a request still terminates. Before the check, A→B→A
/// made `request` recurse through the chain until the stack overflowed.
#[test]
fn a_delegation_that_closes_a_cycle_is_refused() {
    let cycle = |pm: &Arc<PromiseManager>, upstream: &Arc<PromiseManager>| {
        pm.delegate_pool("widgets", Arc::clone(upstream))
    };
    let refused = |e| matches!(e, Err(PromiseError::DelegationCycle { pool }) if pool == PoolId::from("widgets"));

    // Two hops: mid → back, then back → mid.
    let [front, mid, back] = delegation_chain();
    assert!(refused(cycle(&back, &mid)), "back → mid → back");
    // Three hops: front → mid → back, then back → front.
    assert!(refused(cycle(&back, &front)), "back → front → mid → back");
    // A manager is its own shortest cycle, and rebinding is walked too.
    assert!(refused(cycle(&mid, &mid)));
    assert!(refused(mid.delegate_pool("widgets", Arc::clone(&front))));

    // The chain front → mid → back was accepted and still serves.
    let chain = [front, mid, back];
    let p = grant(
        &chain[0],
        "order",
        vec![Predicate::qty_at_least("widgets", 2)],
    );
    assert_eq!(live_counts(&chain), [1, 1, 1]);
    chain[0].release(p).unwrap();
    // Another pool's delegation may point back: only `widgets`' chain is
    // a cycle, and a legal edge onto the chain is accepted.
    assert!(chain[2]
        .delegate_pool("spares", Arc::clone(&chain[0]))
        .is_ok());
    let (side, _) = new_pm();
    assert!(side.delegate_pool("widgets", Arc::clone(&chain[0])).is_ok());
}

#[test]
fn local_rejection_releases_upstream_promises() {
    let (merchant, distributor) = delegated_pair();
    let reason = reject_reason(
        &merchant,
        "impossible",
        vec![
            Predicate::qty_at_least("stock", 100),
            Predicate::qty_at_least("backorders", 1),
        ],
    );
    assert!(matches!(reason, RejectReason::InsufficientQuantity { .. }));
    assert_eq!(
        distributor.live_count(),
        0,
        "upstream promise compensated away"
    );
}

// ---------------------------------------------------------------------
// Misc errors & metrics
// ---------------------------------------------------------------------

#[test]
fn unknown_pool_rejects() {
    let (pm, _) = new_pm();
    let reason = reject_reason(&pm, "a", vec![Predicate::qty_at_least("ghost", 1)]);
    assert!(matches!(reason, RejectReason::UnknownPool(_)));
}

#[test]
fn unknown_promise_operations_error() {
    let (pm, _) = new_pm();
    let id = promises_core::PromiseId(42);
    assert!(matches!(
        pm.release(id).unwrap_err(),
        PromiseError::UnknownPromise(_)
    ));
    assert!(matches!(
        pm.execute(&Environment::none().under(id), |_rm, _txn| Ok(()))
            .unwrap_err(),
        PromiseError::UnknownPromise(_)
    ));
}

#[test]
fn zero_quantity_promise_always_grants() {
    let pm = widgets_pm(0);
    grant(&pm, "a", vec![Predicate::qty_at_least("widgets", 0)]);
}

#[test]
fn empty_predicate_request_grants_trivially() {
    let (pm, _) = new_pm();
    grant(&pm, "empty", vec![]);
    assert_eq!(pm.live_count(), 1);
}

#[test]
fn client_identity_recorded() {
    let pm = widgets_pm(5);
    let p = grant(&pm, "a", vec![Predicate::qty_at_least("widgets", 1)]);
    let rec = pm.promise(p).unwrap();
    assert_eq!(rec.client, ClientId::from("client"));
    assert_eq!(rec.request.0, "a");
}

/// The request index packs `(client, request)` into one key: two pairs
/// that concatenate to the same text are still two requests, and a retry
/// of either is answered with its own promise.
#[test]
fn requests_that_concatenate_alike_are_not_retries_of_each_other() {
    let pm = widgets_pm(5);
    let ask = |client: &str, request: &str| {
        let spec = PromiseRequestSpec::new(request, client)
            .predicate(Predicate::qty_at_least("widgets", 1));
        pm.request(spec).unwrap().decision.granted_id().unwrap()
    };
    let first = ask("ab", "c");
    let second = ask("a", "bc");
    assert_ne!(first, second);
    assert_eq!(pm.live_count(), 2);
    assert_eq!((ask("ab", "c"), ask("a", "bc")), (first, second));
    assert_eq!(pm.metrics().grants_deduped, 2);
}

// ---------------------------------------------------------------------
// Negotiation (§3.3)
// ---------------------------------------------------------------------

#[test]
fn negotiation_drops_desirables_until_grantable() {
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    // Essential: a room. Desirable: suite class AND 9th floor (impossible).
    let full = Predicate::property(
        "rooms",
        PropExpr::all([
            PropExpr::True,
            PropExpr::eq("floor", 9i64).desirable(),
            PropExpr::at_least("class", "suite").desirable(),
        ]),
        1,
    );
    let resp = pm
        .request_negotiated(spec("negotiate", vec![full]))
        .unwrap();
    assert!(resp.response.decision.is_granted());
    assert_eq!(
        resp.total_dropped(),
        2,
        "both impossible desirables dropped"
    );
}

#[test]
fn negotiation_grants_full_request_when_possible() {
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    let full = Predicate::property(
        "rooms",
        PropExpr::all([
            PropExpr::eq("view", true),
            PropExpr::at_least("class", "deluxe").desirable(),
        ]),
        1,
    );
    let resp = pm.request_negotiated(spec("n", vec![full])).unwrap();
    assert!(resp.response.decision.is_granted());
    assert_eq!(resp.total_dropped(), 0);
}

#[test]
fn negotiation_rejects_when_essentials_unsatisfiable() {
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    let full = Predicate::property(
        "rooms",
        PropExpr::all([
            PropExpr::eq("floor", 99i64),
            PropExpr::eq("view", true).desirable(),
        ]),
        1,
    );
    let resp = pm.request_negotiated(spec("n", vec![full])).unwrap();
    assert!(!resp.response.decision.is_granted());
    assert_eq!(
        resp.total_dropped(),
        1,
        "desirable was dropped in the attempt"
    );
}

// ---------------------------------------------------------------------
// Scope enforcement (§2's "the restrictions could be enforced")
// ---------------------------------------------------------------------

#[test]
fn scoped_action_within_promised_pool_succeeds() {
    let pm = widgets_pm(10);
    let p = grant(&pm, "a", vec![Predicate::qty_at_least("widgets", 5)]);
    pm.execute_scoped(&Environment::none().releasing(p), |rm, txn| {
        rm.update(txn, Catalog::QTY_TABLE, "widgets", |r| {
            let q = r.int("qty").unwrap();
            r.set("qty", q - 5);
        })
        .map_err(promises_core::ActionError::from)
    })
    .unwrap();
}

#[test]
fn scoped_action_on_unpromised_pool_is_rejected_and_rolled_back() {
    let (pm, _) = new_pm();
    pm.register_pool(PoolSchema::quantity("pink"));
    pm.register_pool(PoolSchema::quantity("blue"));
    pm.seed_quantity("pink", 10).unwrap();
    pm.seed_quantity("blue", 10).unwrap();
    let p = grant(&pm, "a", vec![Predicate::qty_at_least("pink", 5)]);

    // The §2 anti-example: using the pink promise to take blue widgets.
    let err = pm
        .execute_scoped(&Environment::none().under(p), |rm, txn| {
            rm.update(txn, Catalog::QTY_TABLE, "blue", |r| {
                let q = r.int("qty").unwrap();
                r.set("qty", q - 5);
            })
            .map_err(promises_core::ActionError::from)
        })
        .unwrap_err();
    assert!(
        matches!(&err, PromiseError::ScopeViolation { pool } if pool.0 == "blue"),
        "got {err:?}"
    );
    // Rolled back: blue stock intact.
    let rm = pm.rm();
    let txn = rm.begin();
    assert_eq!(
        rm.get(&txn, Catalog::QTY_TABLE, "blue")
            .unwrap()
            .unwrap()
            .int("qty"),
        Some(10)
    );
    rm.commit(txn).unwrap();
}

#[test]
fn scoped_action_may_write_non_pool_tables() {
    let pm = widgets_pm(10);
    pm.rm().create_table("audit-log");
    let p = grant(&pm, "a", vec![Predicate::qty_at_least("widgets", 5)]);
    pm.execute_scoped(&Environment::none().releasing(p), |rm, txn| {
        rm.update(txn, Catalog::QTY_TABLE, "widgets", |r| {
            let q = r.int("qty").unwrap();
            r.set("qty", q - 5);
        })
        .map_err(promises_core::ActionError::from)?;
        rm.insert(
            txn,
            "audit-log",
            "entry-1",
            promises_rm::Record::new().with("what", "sold 5"),
        )
        .map_err(promises_core::ActionError::from)
    })
    .unwrap();
}

#[test]
fn scoped_instance_pool_writes_are_checked_too() {
    let pm = hotel_pm(CheckStrategy::TentativeAllocation);
    // No promises at all: touching the rooms pool under scope must fail.
    let err = pm
        .execute_scoped(&Environment::none(), |rm, txn| {
            rm.update(txn, &Catalog::instance_table(&"rooms".into()), "101", |r| {
                r.set(Catalog::STATUS, status::TAKEN);
            })
            .map_err(promises_core::ActionError::from)
        })
        .unwrap_err();
    assert!(matches!(err, PromiseError::ScopeViolation { .. }));
}
