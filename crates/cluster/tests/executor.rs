//! Threaded-executor tests: the races the executor must not reopen.
//!
//! Three bugs rode the old modeled-time server and each gets a regression
//! test here against the real thread-per-shard executor:
//!
//! 1. `handle` cloned the gateway *outside* any lock, so a concurrent
//!    crash–restart could leave a request running against the dead
//!    incarnation's gateway while recovery replayed the same journal —
//!    acknowledged grants could vanish. An incarnation `RwLock` closed it
//!    first; today the shard's one worker owns the incarnation and a
//!    restart is a job on its queue, run after every message ahead of it.
//!    `crash_restart_under_load_never_drops_an_acknowledged_grant` pins it.
//! 2. `sync_replication` ran *after* the reply with no ordering against
//!    concurrent handlers, so an acknowledged grant could die with the
//!    leader before shipping. The group-commit barrier ("no reply leaves
//!    until its batch is flushed and shipped") closes it;
//!    `abrupt_kill_preserves_every_acknowledged_grant_on_the_follower`
//!    pins it with a kill that takes no courtesy sync, and
//!    `a_grant_acked_while_promotion_waits_survives_on_the_promoted_node`
//!    pins the promotion side: the old link may only go once the messages
//!    ahead of the promotion have committed through it.
//! 3. The barrier must be *bounded*: a wedged follower (100% drop) must
//!    cost a `stalled` counter, never a hung data path —
//!    `wedged_follower_stalls_the_counter_not_the_data_path` pins it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use promises_cluster::{ClusterDecision, PromiseCluster};
use promises_core::{ClientId, RequestId};
use promises_faults::{FaultInjector, FaultScenario};

const HOUR_MS: u64 = 3_600_000;

fn repl_faults(seed: u64, rate: f64) -> Option<Arc<FaultInjector>> {
    Some(Arc::new(FaultInjector::new(
        FaultScenario::quiet(seed).with_replication_faults(rate, rate),
    )))
}

/// Every acknowledged grant must be resolvable on `shard` — the promise
/// either lives or the request never acked. Single-shard grants keep the
/// client's request id; cross-shard parts are keyed by the 2PC
/// sub-request id (`rid@sN`), so accept either form.
fn assert_all_live(cluster: &PromiseCluster, shard: usize, acked: &[(String, String)], ctx: &str) {
    for (client, rid) in acked {
        let pm = &cluster.nodes[shard].pm;
        let client_id = ClientId(client.clone());
        let found = pm
            .promise_for_request(&client_id, &RequestId(rid.clone()))
            .or_else(|| pm.promise_for_request(&client_id, &RequestId(format!("{rid}@s{shard}"))));
        assert!(
            found.is_some(),
            "acknowledged grant {client}/{rid} missing on shard {shard} ({ctx})"
        );
    }
}

#[test]
fn cross_shard_legs_overlap_modeled_service_time_across_shards() {
    let cluster = PromiseCluster::build(3, 5);
    for (shard, pool) in ["alpha", "beta", "gamma"].into_iter().enumerate() {
        assert_eq!(cluster.register_quantity_pool(pool, 10), shard);
    }
    cluster.set_service_time_us(5_000);
    let predicates: Vec<String> = ["alpha", "beta", "gamma"]
        .map(|pool| format!("qty('{pool}') >= 1"))
        .into();
    let start = Instant::now();
    let decision = cluster
        .coordinator
        .grant("alice", "r1", &predicates, HOUR_MS)
        .expect("quiet bus cannot fail");
    let elapsed = start.elapsed();
    let ClusterDecision::Granted { parts } = decision else {
        panic!("all three shards can hold: {decision:?}");
    };
    assert_eq!(parts.len(), 3);
    // A prepare round and a commit round of three 5ms legs each: posted
    // together they take two sleeps, one after another they take six
    // (>= 30ms). The coordinator spawns nothing, so the only way to land
    // under the bound is for every shard's `submit` to return before its
    // worker is done.
    assert!(
        elapsed < Duration::from_millis(18),
        "2 rounds x 3 x 5ms legs took {elapsed:?} — the legs are not overlapping"
    );
}

#[test]
fn worker_panic_surfaces_in_the_waiter_and_spares_the_other_legs() {
    use promises_wire::{ActionRequest, Envelope};
    let cluster = PromiseCluster::build(2, 9);
    assert_eq!(cluster.register_quantity_pool("alpha", 10), 0);
    assert_eq!(cluster.register_quantity_pool("beta", 10), 1);
    cluster.nodes[0].gateway.register_handler(
        "test",
        "boom",
        Arc::new(|_, _, _| panic!("handler assertion")),
    );
    let boom = Envelope::new().with_action(ActionRequest::new("test", "boom"));
    let fine = Envelope::new().with_release(404);
    let legs = [
        (cluster.nodes[0].endpoint.clone(), boom),
        (cluster.nodes[1].endpoint.clone(), fine.clone()),
    ];
    // Shard 0's worker drops the reply it owes; the waiter re-raises on
    // this thread, and shard 1's `Pending` is dropped unwaited on the way
    // out — which must neither hang nor poison shard 1.
    let sent =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cluster.bus.send_all(&legs)));
    assert!(sent.is_err(), "a handler panic must fail the sender");
    for node in &cluster.nodes {
        cluster
            .bus
            .send(&node.endpoint, &fine)
            .expect("both workers survive and keep serving");
    }
}

/// Group commit at one worker: with a modeled service time, six clients'
/// messages queue while the worker is busy, each wake drains them as one
/// batch, and one write covers the batch's records. A drain that commits
/// once per message fails the amortization assertion.
#[test]
fn group_commit_covers_every_acknowledged_record() {
    let cluster = PromiseCluster::build(1, 7);
    assert_eq!(cluster.register_quantity_pool("alpha", 1_000_000), 0);
    cluster.set_service_time_us(1_000);
    std::thread::scope(|s| {
        for c in 0..6 {
            let coordinator = Arc::clone(&cluster.coordinator);
            s.spawn(move || {
                for op in 0..15 {
                    if let Ok(ClusterDecision::Granted { parts }) = coordinator.grant(
                        &format!("c{c}"),
                        &format!("r{c}-{op}"),
                        &["qty('alpha') >= 1".to_string()],
                        HOUR_MS,
                    ) {
                        coordinator.release(&parts);
                    }
                }
            });
        }
    });
    let journal = &cluster.nodes[0].journal;
    assert_eq!(
        journal.flushed_seq(),
        journal.tip_seq(),
        "no reply left the node with its records unflushed"
    );
    let stats = cluster.nodes[0].server.commit_stats();
    assert!(stats.batches >= 1, "the committer led at least one batch");
    assert_eq!(
        stats.stalled, 0,
        "no follower attached, nothing to stall on"
    );
    let (writes, records) = journal.flush_stats();
    assert!(
        writes < records,
        "queued messages must share a write: {writes} writes, {records} records"
    );
}

/// S3 pin: the incarnation epoch advances exactly once per slot swap —
/// crash–restart and promotion both count — and readers that see the new
/// epoch see the new incarnation (the bump happens while the swap still
/// holds the slot exclusively).
#[test]
fn incarnation_epoch_counts_every_swap() {
    let mut cluster = PromiseCluster::build(2, 11);
    assert_eq!(cluster.register_quantity_pool("alpha", 100), 0);
    assert_eq!(cluster.nodes[0].server.incarnation_epoch(), 0);
    cluster.crash_restart_shard(0);
    assert_eq!(cluster.nodes[0].server.incarnation_epoch(), 1);
    cluster.enable_replication();
    cluster.kill_shard(0);
    cluster.promote_follower(0);
    assert_eq!(cluster.nodes[0].server.incarnation_epoch(), 2);
    assert_eq!(
        cluster.nodes[1].server.incarnation_epoch(),
        0,
        "other shards' slots are untouched"
    );
}

/// S1 pin: crash–restarts racing live traffic. The old server read the
/// gateway outside any lock, so a restart could replay the journal while
/// a straggler handler appended to it through the dead incarnation —
/// dropping acknowledged grants. Now the swap write-locks the slot
/// (quiescing in-flight handlers), recovery runs inside the quiesced
/// window, and every grant acknowledged before, during, or after the
/// five restarts must still be live on both shards.
#[test]
fn crash_restart_under_load_never_drops_an_acknowledged_grant() {
    let mut cluster = PromiseCluster::build(2, 13);
    assert_eq!(cluster.register_quantity_pool("alpha", 1_000_000), 0);
    assert_eq!(cluster.register_quantity_pool("beta", 1_000_000), 1);
    cluster.set_service_time_us(100);
    let acked: Vec<(String, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let coordinator = Arc::clone(&cluster.coordinator);
                s.spawn(move || {
                    let mut acked = Vec::new();
                    let client = format!("c{c}");
                    for op in 0..25 {
                        let rid = format!("r{c}-{op}");
                        let predicates = vec![
                            "qty('alpha') >= 1".to_string(),
                            "qty('beta') >= 1".to_string(),
                        ];
                        if let Ok(ClusterDecision::Granted { .. }) =
                            coordinator.grant(&client, &rid, &predicates, HOUR_MS)
                        {
                            acked.push((client.clone(), rid));
                        }
                    }
                    acked
                })
            })
            .collect();
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(2));
            cluster.crash_restart_shard(0);
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(cluster.nodes[0].server.incarnation_epoch(), 5);
    assert!(
        !acked.is_empty(),
        "the load must actually land grants around the restarts"
    );
    assert_all_live(&cluster, 0, &acked, "after 5 crash-restarts under load");
    assert_all_live(&cluster, 1, &acked, "untouched shard");
}

/// S2 pin: the plug pulled with *no* courtesy sync, at replication fault
/// rates 0/10/20%. The semi-synchronous guarantee must come entirely
/// from the group-commit barrier: every grant acknowledged to a client
/// before the kill must survive onto the promoted follower, because its
/// batch was flushed and shipped before the reply left. The old
/// reply-then-sync ordering loses acknowledged grants here.
#[test]
fn abrupt_kill_preserves_every_acknowledged_grant_on_the_follower() {
    for (i, rate) in [0.0, 0.1, 0.2].into_iter().enumerate() {
        let mut cluster = PromiseCluster::build(2, 17 + i as u64);
        assert_eq!(cluster.register_quantity_pool("alpha", 1_000_000), 0);
        cluster.enable_replication();
        cluster.set_replication_faults(repl_faults(0x52_0000 + i as u64, rate));
        cluster.set_service_time_us(100);
        let acked: Vec<(String, String)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|c| {
                    let coordinator = Arc::clone(&cluster.coordinator);
                    s.spawn(move || {
                        let mut acked = Vec::new();
                        let client = format!("c{c}");
                        for op in 0..30 {
                            let rid = format!("r{c}-{op}");
                            match coordinator.grant(
                                &client,
                                &rid,
                                &["qty('alpha') >= 1".to_string()],
                                HOUR_MS,
                            ) {
                                Ok(ClusterDecision::Granted { .. }) => {
                                    acked.push((client.clone(), rid));
                                }
                                // Rejections and wire errors after the
                                // kill are expected; only acks count.
                                Ok(ClusterDecision::Rejected { .. }) | Err(_) => {}
                            }
                        }
                        acked
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(3));
            cluster.kill_shard_abrupt(0);
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        assert!(
            !acked.is_empty(),
            "some grants must ack before the kill (rate {rate})"
        );
        cluster.promote_follower(0);
        assert_all_live(
            &cluster,
            0,
            &acked,
            &format!("promoted follower, repl fault rate {rate}"),
        );
    }
}

/// Promotion pin: a grant acknowledged while a promotion waits must be on
/// the promoted node. The envelope's grant appends its record, then its
/// action signals that it runs and sleeps 50 ms; meanwhile the leader is
/// killed and its follower promoted. The promotion queues behind the
/// in-flight message, so that message still commits through the old link
/// before its reply leaves and before the follower's journal is replayed.
/// A promotion that drops the link before the in-flight message commits
/// releases the reply unshipped, and the promoted node has never heard of
/// the grant.
#[test]
fn a_grant_acked_while_promotion_waits_survives_on_the_promoted_node() {
    use promises_wire::{ActionRequest, Envelope, PromiseRequestHeader, Service};
    let mut cluster = PromiseCluster::build(1, 31);
    assert_eq!(cluster.register_quantity_pool("alpha", 100), 0);
    cluster.enable_replication();
    let (started, running) = std::sync::mpsc::channel();
    cluster.nodes[0].gateway.register_handler(
        "test",
        "nap",
        Arc::new(move |_, _, _| {
            let _ = started.send(());
            std::thread::sleep(Duration::from_millis(50));
            Ok(vec![])
        }),
    );
    let envelope = Envelope::new()
        .with_promise_request(PromiseRequestHeader {
            request_id: "r1".into(),
            client: "c1".into(),
            predicates: vec!["qty('alpha') >= 1".into()],
            duration_ms: HOUR_MS,
            ..PromiseRequestHeader::default()
        })
        .with_action(ActionRequest::new("test", "nap"));
    let server = Arc::clone(&cluster.nodes[0].server);
    let pending = server.submit(envelope);
    running.recv().expect("the worker runs the action");
    cluster.kill_shard_abrupt(0);
    cluster.promote_follower(0);
    let reply = pending.wait();
    assert_eq!(
        reply.response_for("r1").and_then(|r| r.promise_id),
        Some(1),
        "the grant was acknowledged"
    );
    assert!(
        cluster.nodes[0]
            .pm
            .promise_for_request(&ClientId("c1".into()), &RequestId("r1".into()))
            .is_some(),
        "an acknowledged grant is missing on the promoted node"
    );
}

/// S2/S3 pin, the bounded side: a *wedged* follower (100% replication
/// drop — beyond the ship loop's retry budget) must not hang the data
/// path. The caller leads one flush+ship round, gives up, counts a
/// stall, and the reply still leaves; the follower's watermark honestly
/// stays behind the journal tip for the watchdogs to see.
#[test]
fn wedged_follower_stalls_the_counter_not_the_data_path() {
    let mut cluster = PromiseCluster::build(1, 29);
    assert_eq!(cluster.register_quantity_pool("alpha", 100), 0);
    cluster.enable_replication();
    cluster.set_replication_faults(repl_faults(0x3EDD, 1.0));
    let decision = cluster
        .coordinator
        .grant("c0", "r0", &["qty('alpha') >= 5".to_string()], HOUR_MS)
        .expect("the data path must answer despite the wedged follower");
    assert!(matches!(decision, ClusterDecision::Granted { .. }));
    let stats = cluster.nodes[0].server.commit_stats();
    assert!(stats.stalled >= 1, "the give-up must be counted: {stats:?}");
    let follower = cluster.nodes[0].follower.as_ref().expect("replication on");
    assert!(
        follower.watermark() < cluster.nodes[0].journal.tip_seq(),
        "a wedged follower must honestly lag the tip"
    );
    // The journal itself still flushed — durability is local-first.
    assert_eq!(
        cluster.nodes[0].journal.flushed_seq(),
        cluster.nodes[0].journal.tip_seq()
    );
}
