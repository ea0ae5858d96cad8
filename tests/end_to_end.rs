//! Cross-crate integration tests: full scenarios spanning the resource
//! manager, promise core, wire protocol, and the example services.

use std::sync::Arc;

use promises::core::{
    ActionError, Catalog, Environment, ManualClock, PoolSchema, Predicate, PromiseManager,
    PromiseRequestSpec, PropExpr, SystemClock,
};
use promises::rm::ResourceManager;
use promises::services::{standalone_carrier, Airline, Bank, Hotel, Merchant, RoomSpec, Shipping};
use promises::wire::{Envelope, InMemoryBus, PromiseGateway, PromiseRequestHeader, PromiseResult};

fn new_pm() -> Arc<PromiseManager> {
    Arc::new(PromiseManager::new(
        Arc::new(ResourceManager::new()),
        Arc::new(SystemClock::new()),
    ))
}

#[test]
fn merchant_and_bank_share_one_manager() {
    // One promise manager fronting two services: an order that needs both
    // stock AND funds is granted atomically across both pools.
    let pm = new_pm();
    let merchant = Merchant::new(Arc::clone(&pm));
    merchant.stock_sku("widgets", 10).unwrap();
    let bank = Bank::new(Arc::clone(&pm));
    bank.open_account("alice", 100).unwrap();

    let mut spec = PromiseRequestSpec::new("combined", "checkout");
    spec.predicates = vec![
        Predicate::qty_at_least("widgets", 4),
        Predicate::qty_at_least("acct:alice", 40),
    ];
    let combined = pm.request(spec).unwrap().decision.granted_id().unwrap();

    // Settle both sides in one protected action, releasing the promise.
    pm.execute(&Environment::none().releasing(combined), |rm, txn| {
        rm.update(txn, Catalog::QTY_TABLE, "widgets", |r| {
            let q = r.int("qty").unwrap();
            r.set("qty", q - 4);
        })?;
        rm.update(txn, Catalog::QTY_TABLE, "acct:alice", |r| {
            let q = r.int("qty").unwrap();
            r.set("qty", q - 40);
        })
        .map_err(ActionError::from)
    })
    .unwrap();

    assert_eq!(merchant.on_hand("widgets").unwrap(), 6);
    assert_eq!(bank.balance("alice").unwrap(), 60);
    assert_eq!(pm.live_count(), 0);
}

#[test]
fn hotel_over_the_wire_with_predicate_language() {
    // Drive the hotel through the gateway using the text predicate syntax.
    let pm = new_pm();
    let hotel = Hotel::new(Arc::clone(&pm));
    hotel
        .add_room(RoomSpec::new("512", 5, true, false, 2, "standard"))
        .unwrap();
    hotel
        .add_room(RoomSpec::new("610", 6, true, false, 2, "deluxe"))
        .unwrap();

    let gateway = Arc::new(PromiseGateway::new(Arc::clone(&pm)));
    let bus = InMemoryBus::new();
    bus.register("hotel", gateway);

    let env = Envelope::new().with_promise_request(PromiseRequestHeader {
        request_id: "want-view".into(),
        client: "alice".into(),
        predicates: vec!["prop('rooms'): view == true && floor >= 5".into()],
        duration_ms: 60_000,
        exchange: vec![],
        negotiate: false,
        prepare: false,
    });
    let reply = bus.send("hotel", &env).unwrap();
    let resp = reply.response_for("want-view").unwrap();
    assert!(matches!(resp.result, PromiseResult::Accepted));
    assert_eq!(pm.live_count(), 1);

    // A second identical request also fits (two such rooms exist)...
    let env2 = Envelope::new().with_promise_request(PromiseRequestHeader {
        request_id: "want-view-2".into(),
        client: "bob".into(),
        predicates: vec!["prop('rooms'): view == true && floor >= 5".into()],
        duration_ms: 60_000,
        exchange: vec![],
        negotiate: false,
        prepare: false,
    });
    let reply = bus.send("hotel", &env2).unwrap();
    assert!(matches!(
        reply.response_for("want-view-2").unwrap().result,
        PromiseResult::Accepted
    ));
    // ...but a third does not.
    let env3 = Envelope::new().with_promise_request(PromiseRequestHeader {
        request_id: "want-view-3".into(),
        client: "carol".into(),
        predicates: vec!["prop('rooms'): view == true".into()],
        duration_ms: 60_000,
        exchange: vec![],
        negotiate: false,
        prepare: false,
    });
    let reply = bus.send("hotel", &env3).unwrap();
    assert!(matches!(
        reply.response_for("want-view-3").unwrap().result,
        PromiseResult::Rejected(_)
    ));
}

#[test]
fn promise_exchange_over_the_wire() {
    // §6: "an optional set of promise identifiers that refer to existing
    // promises that can be released if this new promise request is
    // successfully granted."
    let pm = new_pm();
    pm.register_pool(PoolSchema::quantity("balance"));
    pm.seed_quantity("balance", 200).unwrap();
    let gateway = Arc::new(PromiseGateway::new(Arc::clone(&pm)));
    let bus = InMemoryBus::new();
    bus.register("bank", gateway);

    let grant = |req: &str, amount: u64, exchange: Vec<u64>| {
        let env = Envelope::new().with_promise_request(PromiseRequestHeader {
            request_id: req.into(),
            client: "shop".into(),
            predicates: vec![format!("qty('balance') >= {amount}")],
            duration_ms: 60_000,
            exchange,
            negotiate: false,
            prepare: false,
        });
        let reply = bus.send("bank", &env).unwrap();
        reply.response_for(req).unwrap().clone()
    };

    let first = grant("hold-100", 100, vec![]);
    let id100 = first.promise_id.expect("granted");
    // Upgrade to 200 atomically: only possible because the exchange
    // releases the 100 hold in the same atomic step.
    let upgraded = grant("hold-200", 200, vec![id100]);
    assert!(matches!(upgraded.result, PromiseResult::Accepted));
    assert_eq!(pm.live_count(), 1);
    // Exchanging an id that no longer exists is rejected.
    let stale = grant("hold-50", 50, vec![id100]);
    assert!(matches!(stale.result, PromiseResult::Rejected(_)));
}

#[test]
fn airline_full_lifecycle_with_upgrades() {
    let pm = new_pm();
    let airline = Airline::new(Arc::clone(&pm));
    airline
        .add_flight(
            "QF1",
            &[
                ("24A", "economy", true),
                ("24B", "economy", false),
                ("12A", "business", true),
                ("1A", "first", true),
            ],
        )
        .unwrap();

    // Named + class promises interleaved.
    let named = airline
        .promise_seat("a", "QF1", "24A", 60_000)
        .unwrap()
        .unwrap();
    let economy = airline
        .promise_class("b", "QF1", "economy", 2, 60_000)
        .unwrap()
        .unwrap();
    // 24B + one upgrade cover the class promise; nothing remains.
    assert!(airline
        .promise_class("c", "QF1", "economy", 2, 60_000)
        .unwrap()
        .is_err());

    let seats = airline.ticket("QF1", economy).unwrap();
    assert_eq!(seats.len(), 2);
    let named_seats = airline.ticket("QF1", named).unwrap();
    assert_eq!(named_seats, vec!["24A".to_owned()]);
    assert_eq!(pm.live_count(), 0);
}

#[test]
fn shipping_delegation_end_to_end() {
    let carrier = standalone_carrier(2);
    let shipping = Shipping::new(new_pm(), 10)
        .unwrap()
        .with_carrier(Arc::clone(&carrier))
        .unwrap();

    let p1 = shipping
        .promise_next_day("order-1", 60_000)
        .unwrap()
        .unwrap();
    let p2 = shipping
        .promise_next_day("order-2", 60_000)
        .unwrap()
        .unwrap();
    assert_eq!(carrier.live_count(), 2);
    assert!(shipping
        .promise_next_day("order-3", 60_000)
        .unwrap()
        .is_err());

    shipping.ship(p1).unwrap();
    assert_eq!(carrier.live_count(), 1);
    shipping.manager().release(p2).unwrap();
    assert_eq!(carrier.live_count(), 0, "cascaded release");
}

#[test]
fn expiry_cascades_to_upstream_promises() {
    // The front manager runs on a manual clock; when its promise expires,
    // the delegated upstream promise must be released too.
    let carrier = standalone_carrier(1);
    let clock = Arc::new(ManualClock::new());
    let front = Arc::new(PromiseManager::new(
        Arc::new(ResourceManager::new()),
        Arc::clone(&clock) as Arc<dyn promises::core::Clock>,
    ));
    front
        .delegate_pool("carrier-capacity", Arc::clone(&carrier))
        .unwrap();

    let resp = front
        .request(
            PromiseRequestSpec::new("d", "client")
                .predicate(Predicate::qty_at_least("carrier-capacity", 1))
                .duration_ms(1_000),
        )
        .unwrap();
    assert!(resp.decision.is_granted());
    assert_eq!(carrier.live_count(), 1);

    clock.advance(5_000);
    front.prune_expired().unwrap();
    assert_eq!(front.live_count(), 0);
    assert_eq!(carrier.live_count(), 0, "upstream released on expiry");
}

#[test]
fn concurrent_mixed_services_keep_invariants() {
    // Hammer one manager from many threads across two services and verify
    // conservation invariants at the end.
    let pm = new_pm();
    let merchant = Arc::new(Merchant::new(Arc::clone(&pm)));
    merchant.stock_sku("gadgets", 400).unwrap();
    let bank = Arc::new(Bank::new(Arc::clone(&pm)));
    bank.open_account("shared", 400).unwrap();

    let threads = 8;
    let per = 20;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let merchant = Arc::clone(&merchant);
            let bank = Arc::clone(&bank);
            scope.spawn(move || {
                for i in 0..per {
                    if (t + i) % 2 == 0 {
                        if let Ok(p) = merchant.reserve_stock("c", "gadgets", 2, 60_000).unwrap() {
                            if i % 3 == 0 {
                                merchant.abandon(p).unwrap();
                            } else {
                                merchant.purchase(p, "c", "gadgets", 2).unwrap();
                            }
                        }
                    } else if let Ok(p) = bank.promise_funds("c", "shared", 3, 60_000).unwrap() {
                        if i % 3 == 0 {
                            bank.release(p).unwrap();
                        } else {
                            bank.withdraw(p, "shared", 3).unwrap();
                        }
                    }
                }
            });
        }
    });

    // Conservation: stock spent == 2 * completed orders.
    let orders = merchant.order_count().unwrap() as u64;
    assert_eq!(merchant.on_hand("gadgets").unwrap(), 400 - 2 * orders);
    assert_eq!(pm.live_count(), 0, "all promises settled");
    let m = pm.metrics();
    assert_eq!(m.violations_rolled_back, 0, "no protected action violated");
    assert!(bank.balance("shared").unwrap() <= 400);
}

#[test]
fn negotiated_promise_over_mixed_essential_desirable() {
    let pm = new_pm();
    let hotel = Hotel::new(Arc::clone(&pm));
    hotel
        .add_room(RoomSpec::new("101", 1, false, true, 2, "standard"))
        .unwrap();

    let mut spec = PromiseRequestSpec::new("fussy", "alice");
    spec.predicates = vec![Predicate::property(
        "rooms",
        PropExpr::all([
            PropExpr::eq("beds", 2i64),
            PropExpr::eq("smoking", false).desirable(),
            PropExpr::eq("view", true).desirable(),
        ]),
        1,
    )];
    let out = pm.request_negotiated(spec).unwrap();
    assert!(out.response.decision.is_granted());
    assert_eq!(out.total_dropped(), 2, "only the smoking room exists");
    assert_eq!(
        hotel
            .book(out.response.decision.granted_id().unwrap())
            .unwrap(),
        "101"
    );
}
