//! Delegation chains across leader fail-over: an edge manager's §5
//! delegated promise is backed by a promise on a cluster shard; killing
//! that shard's leader and promoting its warm follower must preserve the
//! backing promise (same id, same hold), and after the edge re-points its
//! delegation at the promoted manager the chain must keep working in both
//! directions — new bookings delegate to the promoted leader, and
//! releasing the edge promise cascades into it.

use std::sync::Arc;

use promises_cluster::PromiseCluster;
use promises_core::{
    ClientId, Clock, Predicate, PromiseDecision, PromiseManager, PromiseRequestSpec, RequestId,
};
use promises_rm::ResourceManager;

const POOL: &str = "carrier-capacity";
const HOUR_MS: u64 = 3_600_000;

fn delegated_grant(edge: &PromiseManager, rid: &str, amount: u64) -> promises_core::PromiseId {
    let resp = edge
        .request(
            PromiseRequestSpec::new(rid, "edge-client")
                .predicate(Predicate::qty_at_least(POOL, amount))
                .duration_ms(HOUR_MS),
        )
        .expect("delegated request runs");
    match resp.decision {
        PromiseDecision::Granted { promise, .. } => promise,
        PromiseDecision::Rejected { reason } => panic!("unexpected rejection: {reason}"),
    }
}

/// The backing promise the delegation created on the upstream shard, by
/// the manager's `{request}::delegated::{pool}` sub-request key.
fn backing_id(pm: &PromiseManager, rid: &str) -> Option<promises_core::PromiseId> {
    pm.promise_for_request(
        &ClientId("edge-client".to_owned()),
        &RequestId(format!("{rid}::delegated::{POOL}")),
    )
}

#[test]
fn delegated_promise_survives_leader_kill_and_rebinds_to_the_promoted_follower() {
    let mut cluster = PromiseCluster::build(2, 7);
    assert_eq!(cluster.register_quantity_pool(POOL, 100), 0);
    cluster.enable_replication();

    // The edge manager owns nothing itself; its carrier pool is a
    // delegation straight at shard 0's promise manager.
    let edge = Arc::new(PromiseManager::new(
        Arc::new(ResourceManager::new()),
        Arc::clone(&cluster.clock) as Arc<dyn Clock>,
    ));
    edge.delegate_pool(POOL, Arc::clone(&cluster.nodes[0].pm))
        .unwrap();

    let booking = delegated_grant(&edge, "book-1", 5);
    let backing = backing_id(&cluster.nodes[0].pm, "book-1").expect("backing promise on shard 0");
    assert_eq!(cluster.nodes[0].pm.live_count(), 1);

    // Kill the leader (the final journal ship runs before it dies) and
    // promote the warm follower: the backing promise must survive replay
    // with its id and hold intact.
    cluster.kill_shard(0);
    cluster.promote_follower(0);
    let promoted = Arc::clone(&cluster.nodes[0].pm);
    assert_eq!(
        promoted.live_count(),
        1,
        "promotion must replay the backing promise"
    );
    assert_eq!(
        backing_id(&promoted, "book-1"),
        Some(backing),
        "the backing promise keeps its id across fail-over"
    );

    // Re-point the delegation at the promoted manager. New bookings
    // delegate to it...
    edge.delegate_pool(POOL, Arc::clone(&promoted)).unwrap();
    let booking2 = delegated_grant(&edge, "book-2", 3);
    assert_eq!(promoted.live_count(), 2);
    assert!(backing_id(&promoted, "book-2").is_some());

    // ...and releases cascade into it, including for the chain that was
    // created before the fail-over.
    edge.release(booking).expect("release cascades");
    assert_eq!(
        promoted.live_count(),
        1,
        "pre-fail-over chain released through the promoted leader"
    );
    assert_eq!(backing_id(&promoted, "book-1"), None);

    edge.release(booking2).expect("release cascades");
    assert_eq!(promoted.live_count(), 0);
    assert_eq!(edge.live_count(), 0, "edge books are clean");
}
