//! The Figure 2 prototype pipeline over the wire protocol.
//!
//! Client → (XML envelope) → bus → PromiseGateway → PromiseManager →
//! Application handler → ResourceManager, with promise checking after the
//! action and a reply envelope back to the client. The §6 combined form
//! is used: one message carries a `<promise-request>`, an `<environment>`
//! referencing it by correlation, and the purchase action body.
//!
//! Run with: `cargo run --example soa_pipeline`

use std::sync::Arc;
use std::time::Duration;

use promises::core::{ActionError, Catalog, PoolSchema, PromiseManager, SystemClock};
use promises::rm::ResourceManager;
use promises::wire::{
    ActionRequest, EnvEntry, EnvRef, Envelope, EnvironmentHeader, InMemoryBus, NetworkProfile,
    PromiseGateway, PromiseRequestHeader, PromiseResult,
};

fn main() {
    println!("== Figure 2: client -> promise manager -> application -> RM ==\n");

    // Server side: promise manager + application handler behind a gateway.
    let rm = Arc::new(ResourceManager::new());
    let pm = Arc::new(PromiseManager::new(rm, Arc::new(SystemClock::new())));
    pm.register_pool(PoolSchema::quantity("pink-widgets"));
    pm.seed_quantity("pink-widgets", 10).unwrap();

    let gateway = Arc::new(PromiseGateway::new(Arc::clone(&pm)));
    gateway.register_handler(
        "merchant",
        "purchase",
        Arc::new(|rm, txn, action| {
            let qty: i64 = action
                .get("qty")
                .and_then(|v| v.parse().ok())
                .ok_or(ActionError::App("missing qty".into()))?;
            rm.update(txn, Catalog::QTY_TABLE, "pink-widgets", |r| {
                let q = r.int("qty").unwrap();
                r.set("qty", q - qty);
            })?;
            Ok(vec![("shipped".into(), qty.to_string())])
        }),
    );

    // Transport: in-memory bus with injected latency (every message is
    // XML-encoded and decoded in both directions).
    let bus = InMemoryBus::new();
    bus.set_profile(NetworkProfile {
        latency: Duration::from_millis(2),
    });
    bus.register("merchant-gateway", gateway.clone());

    // Client side, message 1: standalone promise request.
    let request = Envelope::new().with_promise_request(PromiseRequestHeader {
        request_id: "r1".into(),
        client: "order-process".into(),
        predicates: vec!["qty('pink-widgets') >= 5".into()],
        duration_ms: 60_000,
        exchange: vec![],
        negotiate: false,
        prepare: false,
    });
    println!("client: -> promise request qty('pink-widgets') >= 5");
    let reply = bus.send("merchant-gateway", &request).unwrap();
    let resp = reply.response_for("r1").unwrap();
    let promise_id = resp.promise_id.expect("accepted");
    println!(
        "client: <- accepted, promise id {promise_id}, expires at {}ms",
        resp.expires_at
    );

    // Message 2: the §6 combined form — request a SECOND promise, run the
    // purchase under BOTH (releasing both on success), in one envelope.
    let combined = Envelope::new()
        .with_promise_request(PromiseRequestHeader {
            request_id: "r2".into(),
            client: "order-process".into(),
            predicates: vec!["qty('pink-widgets') >= 2".into()],
            duration_ms: 60_000,
            exchange: vec![],
            negotiate: false,
            prepare: false,
        })
        .with_environment(EnvironmentHeader {
            entries: vec![
                EnvEntry {
                    reference: EnvRef::Id(promise_id),
                    release_after: true,
                },
                EnvEntry {
                    reference: EnvRef::Correlation("r2".into()),
                    release_after: true,
                },
            ],
        })
        .with_action(ActionRequest::new("merchant", "purchase").param("qty", 7));
    println!("client: -> combined promise-request + purchase(7) under both promises");
    let reply = bus.send("merchant-gateway", &combined).unwrap();
    assert!(matches!(
        reply.response_for("r2").unwrap().result,
        PromiseResult::Accepted
    ));
    let action = reply.action_response.clone().unwrap();
    println!(
        "client: <- action ok={} shipped={:?}; promises released with it",
        action.ok,
        action.get("shipped")
    );
    assert!(action.ok);
    assert_eq!(pm.live_count(), 0);

    // Message 3: a violating purchase is rolled back by the post-check.
    let hold = Envelope::new().with_promise_request(PromiseRequestHeader {
        request_id: "r3".into(),
        client: "other-client".into(),
        predicates: vec!["qty('pink-widgets') >= 3".into()],
        duration_ms: 60_000,
        exchange: vec![],
        negotiate: false,
        prepare: false,
    });
    bus.send("merchant-gateway", &hold).unwrap();
    println!("\nother-client: holds a promise for the remaining 3 widgets");

    let rogue =
        Envelope::new().with_action(ActionRequest::new("merchant", "purchase").param("qty", 1));
    let reply = bus.send("merchant-gateway", &rogue).unwrap();
    let action = reply.action_response.unwrap();
    println!(
        "client: unprotected purchase(1) -> ok={} ({})",
        action.ok,
        action.error.as_deref().unwrap_or("-")
    );
    assert!(!action.ok, "the rogue purchase must be rolled back");

    let stats = bus.stats();
    println!(
        "\nbus: {} messages delivered, {} bytes of XML moved",
        stats.delivered, stats.bytes
    );
    let m = pm.metrics();
    println!(
        "manager: granted={} rejected={} executions={} violations_rolled_back={}",
        m.granted, m.rejected, m.executions, m.violations_rolled_back
    );
}
