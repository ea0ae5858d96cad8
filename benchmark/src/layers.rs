//! The layer ledger: what each layer costs by itself, and what it does
//! per op. Times come from single-thread replays, on private instances,
//! of inputs captured from the workload; counts come from the public
//! snapshots, as deltas over a stretch of the run.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use promises_cluster::{ReplicationLink, ShardFollower};
use promises_core::{
    Catalog, Clock, Environment, ManualClock, Predicate, PromiseDecision, PromiseId,
    PromiseJournal, PromiseManager, PromiseRequestSpec, RequestId,
};
use promises_telemetry::Telemetry;
use promises_wire::{decode, encode, Envelope, InMemoryBus, PromiseGateway, ResolveRef, Service};

use crate::cluster_load::Captured;
use crate::run::Metric;
use crate::stats;
use crate::trace::{self, Span, TraceSummary};
use crate::workload::{hold_ms, Counters, Restart, Workload, TICK_MS};

/// A fresh, private copy of what the workload runs against, preloaded the
/// same way but never warmed up: a layer measured on it is measured by
/// itself.
pub struct Replica {
    pub clock: Arc<ManualClock>,
    /// The manager quantity asks go to, and a pool of it.
    pub qty_pm: Arc<PromiseManager>,
    pub qty_pool: String,
    /// The manager room asks go to, and the workload's transient room ask.
    pub prop: Option<(Arc<PromiseManager>, Predicate)>,
    /// The gateway of the shard whose messages were captured.
    pub gateway: Option<Arc<PromiseGateway>>,
    /// Whatever owns the above (a whole cluster, for the wire workloads),
    /// kept so its worker threads outlive the replays.
    pub _owner: Box<dyn std::any::Any>,
}

pub struct Inputs<'a> {
    pub name: &'a str,
    pub load: &'a dyn Workload,
    pub summary: &'a TraceSummary,
    /// Ops and counter deltas of the traced closed phase.
    pub traced_ops: u64,
    pub traced: &'a Counters,
    /// Ops and counter deltas of the recovery rounds' single-client
    /// stretches: these repeat exactly for a seed.
    pub recovery_ops: u64,
    pub recovery: &'a Counters,
    pub restarts: &'a [Restart],
    pub closed_p50_us: f64,
    pub client: [Metric; 5],
    pub trace_overhead_share: f64,
    pub lag_max: u64,
}

fn p50_us(ns: &mut [u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    stats::percentile(ns, 0.5) as f64 / 1e3
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let started = Instant::now();
    let out = std::hint::black_box(f());
    (out, started.elapsed().as_nanos() as u64)
}

/// `wire.codec`: encode and decode every captured envelope.
fn codec(captured: &[Captured]) -> (f64, f64, f64) {
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    for env in captured.iter().flat_map(|c| [&c.request, &c.reply]) {
        let (wire, t) = timed(|| encode(env));
        enc.push(t);
        bytes += wire.len() as u64;
        let (back, t) = timed(|| decode(&wire));
        dec.push(t);
        assert!(back.is_ok(), "a captured envelope must decode");
    }
    (
        p50_us(&mut enc),
        p50_us(&mut dec),
        ratio(bytes, enc.len() as u64),
    )
}

/// `wire.bus`: send every captured request over a private bus to a
/// service that answers with the captured reply; the send minus the
/// wrapped `handle` is what the bus itself costs per message.
fn bus_self(captured: &[Captured]) -> f64 {
    struct Canned {
        replies: Vec<Envelope>,
        at: AtomicUsize,
        inner_ns: AtomicUsize,
    }
    impl Service for Canned {
        fn handle(&self, _envelope: Envelope) -> Envelope {
            let started = Instant::now();
            // Relaxed: one thread drives the replay.
            let reply = self.replies[self.at.fetch_add(1, Ordering::Relaxed)].clone();
            self.inner_ns
                .store(started.elapsed().as_nanos() as usize, Ordering::Relaxed);
            reply
        }
    }
    let canned = Arc::new(Canned {
        replies: captured.iter().map(|c| c.reply.clone()).collect(),
        at: AtomicUsize::new(0),
        inner_ns: AtomicUsize::new(0),
    });
    let bus = InMemoryBus::new();
    bus.register("replay", Arc::clone(&canned) as Arc<dyn Service>);
    let mut own = Vec::with_capacity(captured.len());
    for c in captured {
        let (reply, t) = timed(|| bus.send("replay", &c.request));
        assert!(reply.is_ok(), "the private bus has no faults");
        own.push(t.saturating_sub(canned.inner_ns.load(Ordering::Relaxed) as u64));
    }
    p50_us(&mut own)
}

/// `wire.gateway`: hand the captured requests, in order and at their
/// logical times, to the replica's gateway. Promise ids differ on the
/// replica, so releases and resolutions are rewritten through the
/// captured→replayed id map; messages about promises granted before the
/// capture began are skipped.
fn gateway(replica: &Replica, captured: &[Captured]) -> f64 {
    let Some(gateway) = &replica.gateway else {
        return 0.0;
    };
    let mut ids: HashMap<u64, u64> = HashMap::new();
    let mut took = Vec::with_capacity(captured.len());
    for c in captured {
        let mut env = c.request.clone();
        let known = env.releases.iter().all(|id| ids.contains_key(id))
            && env.resolutions.iter().all(|r| match &r.reference {
                ResolveRef::Id(id) => ids.contains_key(id),
                ResolveRef::Request { .. } => true,
            });
        if !known {
            continue;
        }
        for id in &mut env.releases {
            *id = ids[id];
        }
        for r in &mut env.resolutions {
            if let ResolveRef::Id(id) = &mut r.reference {
                *id = ids[id];
            }
        }
        let behind = c.now_ms.saturating_sub(replica.clock.now_ms());
        replica.clock.advance(behind);
        let (reply, t) = timed(|| gateway.handle(env));
        took.push(t);
        for (was, now) in c
            .reply
            .promise_responses
            .iter()
            .zip(&reply.promise_responses)
        {
            if let (Some(was), Some(now)) = (was.promise_id, now.promise_id) {
                ids.insert(was, now);
            }
        }
    }
    p50_us(&mut took)
}

/// What `core.manager` costs by itself on a table shaped like the
/// workload's: µs per request, release, purchase and reaped promise.
struct ManagerCosts {
    request_qty_us: f64,
    request_prop_us: f64,
    release_us: f64,
    execute_us: f64,
    prune_us_per_expired: f64,
    telemetry_overhead_share: f64,
}

fn ask(pm: &PromiseManager, n: &mut u64, predicate: &Predicate) -> (PromiseId, u64) {
    *n += 1;
    let spec = PromiseRequestSpec::new(RequestId(format!("replay-{n}")), "replay")
        .predicate(predicate.clone())
        .duration_ms(hold_ms(TICK_MS));
    let (response, t) = timed(|| pm.request(spec));
    match response.expect("replica request").decision {
        PromiseDecision::Granted { promise, .. } => (promise, t),
        PromiseDecision::Rejected { reason } => panic!("replica refused {predicate}: {reason}"),
    }
}

fn manager(replica: &Replica) -> ManagerCosts {
    const CYCLES: usize = 1_024;
    let pm = &replica.qty_pm;
    let qty = Predicate::qty_at_least(replica.qty_pool.as_str(), 1);
    let mut n = 0u64;
    let (mut request, mut release, mut execute) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..CYCLES {
        replica.clock.advance(TICK_MS);
        let (id, t) = ask(pm, &mut n, &qty);
        request.push(t);
        if i % 4 == 0 {
            // A purchase under the promise, released with it.
            let env = Environment::none().releasing(id);
            let pool = replica.qty_pool.clone();
            let (done, t) = timed(|| {
                pm.execute(&env, |rm, txn| {
                    rm.update(txn, Catalog::QTY_TABLE, &pool, |r| {
                        let on_hand = r.int("qty").unwrap_or(0);
                        r.set("qty", on_hand - 1);
                    })?;
                    Ok(())
                })
            });
            done.expect("replica purchase");
            execute.push(t);
        } else {
            let (done, t) = timed(|| pm.release(id));
            done.expect("replica release");
            release.push(t);
        }
    }

    let mut request_prop = Vec::new();
    if let Some((prop_pm, room)) = &replica.prop {
        for _ in 0..CYCLES / 4 {
            replica.clock.advance(TICK_MS);
            let (id, t) = ask(prop_pm, &mut n, room);
            request_prop.push(t);
            prop_pm.release(id).expect("replica release");
        }
    }

    // Expiry: let a batch run out, then time the reaper alone.
    const BATCH: u64 = 256;
    for _ in 0..BATCH {
        ask(pm, &mut n, &qty);
    }
    replica.clock.advance(hold_ms(TICK_MS) + TICK_MS);
    let (reaped, t) = timed(|| pm.prune_expired());
    let reaped = reaped.expect("replica prune") as u64;
    assert_eq!(reaped, BATCH, "exactly the batch expires");

    // Telemetry on against telemetry off, in alternating blocks so drift
    // in the machine hits both alike.
    let registry = Telemetry::shared();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for block in 0..16 {
        let attached = block % 2 == 0;
        pm.set_telemetry(attached.then(|| Arc::clone(&registry)));
        let (_, t) = timed(|| {
            for _ in 0..128 {
                replica.clock.advance(TICK_MS);
                let (id, _) = ask(pm, &mut n, &qty);
                pm.release(id).expect("replica release");
            }
        });
        if attached { &mut on } else { &mut off }.push(t as f64);
    }
    let (on, off) = (stats::median(&on), stats::median(&off));

    ManagerCosts {
        request_qty_us: p50_us(&mut request),
        request_prop_us: p50_us(&mut request_prop),
        release_us: p50_us(&mut release),
        execute_us: p50_us(&mut execute),
        prune_us_per_expired: t as f64 / 1e3 / reaped as f64,
        telemetry_overhead_share: (on - off) / on,
    }
}

/// `core.journal` by itself: re-append the records the manager replay
/// journalled to a private journal, then compact the replica's.
fn journal(replica: &Replica) -> (f64, f64, f64) {
    let source = replica.qty_pm.journal().expect("replica journals");
    let lines = source.lines();
    let line_bytes = ratio(
        lines.iter().map(|l| l.len() as u64).sum(),
        lines.len() as u64,
    );
    let private = PromiseJournal::new();
    let mut append = Vec::new();
    for entry in source.entries().expect("replica journal decodes") {
        let (_, t) = timed(|| private.append(entry.op));
        append.push(t);
    }
    let (report, t) = timed(|| replica.qty_pm.compact());
    report.expect("replica compacts");
    (p50_us(&mut append), line_bytes, t as f64 / 1e6)
}

/// `cluster.replica` by itself: ship a private leader journal to a
/// private follower, two records a sync (what one op journals).
fn replication(replica: &Replica) -> f64 {
    let source = replica.qty_pm.journal().expect("replica journals");
    let leader = Arc::new(PromiseJournal::new());
    let link = ReplicationLink::new(
        Arc::clone(&leader),
        Arc::new(ShardFollower::new()),
        Telemetry::shared(),
        0,
    );
    let mut sync = Vec::new();
    for pair in source.entries().expect("replica journal decodes").chunks(2) {
        for entry in pair {
            leader.append(entry.op.clone());
        }
        let (report, t) = timed(|| link.sync());
        assert!(report.caught_up, "a private link has no faults");
        sync.push(t);
    }
    p50_us(&mut sync)
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
/// A layer the workload does not cross reports 0.
pub fn per_layer(i: Inputs) -> Vec<Metric> {
    let m = Metric::new;
    let captured = i.load.captured();
    let replica = i.load.replica();
    let gauges = i.load.gauges();

    let (encode_us, decode_us, bytes_per_msg) = codec(&captured);
    let bus_self_us = bus_self(&captured);
    let gateway_us = gateway(&replica, &captured);
    let costs = manager(&replica);
    // Before `journal`, which ends by compacting what this one replays.
    let sync_us = if i.traced.repl_lines > 0 {
        replication(&replica)
    } else {
        0.0
    };
    let (append_us, line_bytes, compact_ms) = journal(&replica);
    // Flushes are the commit barrier's only where there is one.
    let records_per_flush = if i.traced.commit_batches > 0 {
        ratio(i.traced.flushed_records, i.traced.flush_writes)
    } else {
        0.0
    };

    // The ledger: what surrounds the shard calls inside the grant and the
    // release (coordinator, retrying client, bus), plus the time inside
    // the shards' `handle` (for `pm_table`: inside the manager call),
    // against the whole op. Medians do not add up exactly; what is left
    // over is the harness's own share plus that.
    let shard_us = i.summary.duration_us(trace::SHARD_HANDLE);
    let grant_around_us = i.summary.self_us(trace::COORD_GRANT);
    let release_around_us = i.summary.self_us(trace::COORD_RELEASE);
    let op_us = i.summary.duration_us(trace::CLIENT_OP);
    let attributed_us = grant_around_us + release_around_us + i.summary.in_leaves_us;
    // Bus hops a grant waits for one after the other: a single-shard
    // grant is one, a cross-shard grant a prepare round and a commit round.
    let grant_hops = if i.name == "booking_cross" { 2.0 } else { 1.0 };

    let replayed: usize = i.restarts.iter().map(|r| r.replayed).sum();
    let restart_us: f64 = i.restarts.iter().map(|r| r.restart_ms * 1e3).sum();
    let records_per_op = ratio(i.recovery.journal_records, i.recovery_ops);
    println!(
        "ledger: op p50 {op_us:.1} us traced ({:.1} us untraced) = around the grant {grant_around_us:.1} + around the release {release_around_us:.1} + inside {:.1} shard.handle spans {:.1} + unattributed {:.1}",
        i.closed_p50_us,
        i.summary.per_op(trace::SHARD_HANDLE),
        i.summary.in_leaves_us,
        op_us - attributed_us,
    );

    let mut out: Vec<Metric> = i.client.into_iter().collect();
    out.extend([
        m(
            "coord.grant_self_us",
            (grant_around_us - grant_hops * bus_self_us).max(0.0),
            "us",
        ),
        m(
            "coord.msgs_per_op",
            ratio(i.recovery.bus_msgs, i.recovery_ops),
            "count",
        ),
        m("coord.dedup_len", gauges.dedup_len as f64, "count"),
        m(
            "coord.log_records_per_op",
            ratio(i.recovery.coord_log_records, i.recovery_ops),
            "count",
        ),
        m("bus.send_self_us", bus_self_us, "us"),
        m(
            "bus.bytes_per_op",
            ratio(i.recovery.bus_bytes, i.recovery_ops),
            "B",
        ),
        m("codec.encode_us", encode_us, "us"),
        m("codec.decode_us", decode_us, "us"),
        m("codec.bytes_per_msg", bytes_per_msg, "B"),
        m("shard.handle_us", shard_us, "us"),
        m("shard.handoff_us", (shard_us - gateway_us).max(0.0), "us"),
        m(
            "shard.queue_depth_max",
            gauges.queue_depth_max as f64,
            "count",
        ),
        m("commit.records_per_flush", records_per_flush, "count"),
        m(
            "commit.batches_per_op",
            ratio(i.traced.commit_batches, i.traced_ops),
            "count",
        ),
        m("commit.stalled", i.traced.commit_stalled as f64, "count"),
        m("repl.sync_us", sync_us, "us"),
        m(
            "repl.lines_per_op",
            ratio(i.traced.repl_lines, i.traced_ops),
            "count",
        ),
        m("repl.lag_max", i.lag_max as f64, "count"),
        m("gateway.handle_us", gateway_us, "us"),
        m("pm.request_qty_us", costs.request_qty_us, "us"),
        m("pm.request_prop_us", costs.request_prop_us, "us"),
        m("pm.release_us", costs.release_us, "us"),
        m("pm.execute_us", costs.execute_us, "us"),
        m("pm.prune_us_per_expired", costs.prune_us_per_expired, "us"),
        m(
            "pm.check_us",
            ratio(i.traced.check_ns, i.traced.check_ops) / 1e3,
            "us",
        ),
        m(
            "pm.lock_wait_share",
            ratio(i.traced.lock_wait_ns, i.traced.pm_ns),
            "share",
        ),
        m(
            "rm.txn_us",
            ratio(i.traced.rm_txn_ns, i.traced.rm_txns) / 1e3,
            "us",
        ),
        m("journal.append_us", append_us, "us"),
        m("journal.records_per_op", records_per_op, "count"),
        m("journal.bytes_per_op", records_per_op * line_bytes, "B"),
        m("journal.compactions", i.traced.compactions as f64, "count"),
        m("journal.compact_ms", compact_ms, "ms"),
        m(
            "journal.replay_us_per_record",
            restart_us / replayed.max(1) as f64,
            "us",
        ),
        m(
            "alloc.count_per_op",
            ratio(i.recovery.allocs, i.recovery_ops),
            "count",
        ),
        m(
            "alloc.bytes_per_op",
            ratio(i.recovery.alloc_bytes, i.recovery_ops),
            "B",
        ),
        m(
            "telemetry.overhead_share",
            costs.telemetry_overhead_share,
            "share",
        ),
        m(
            "ledger.unattributed_share",
            (op_us - attributed_us) / op_us.max(f64::MIN_POSITIVE),
            "share",
        ),
        m("trace_overhead_share", i.trace_overhead_share, "share"),
    ]);
    out
}

/// Writes the spans next to the build outputs (the one place inside the
/// checkout that is never committed).
pub fn write_trace(name: &str, seed: u64, traces: &BTreeMap<u64, Vec<Span>>) {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("benchmark/target"))
        .join("trace");
    let path = dir.join(format!("{name}-{seed}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace::to_json(traces)));
    match written {
        Ok(()) => println!("trace: spans written to {}", path.display()),
        Err(e) => println!("trace: spans not written to {}: {e}", path.display()),
    }
}
