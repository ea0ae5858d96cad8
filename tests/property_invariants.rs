//! Property-based tests of the system's core invariants.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use promises::core::{
    parse_predicate, ActionError, Catalog, Clock, CmpOp, Environment, ManualClock, PoolSchema,
    Predicate, PromiseId, PromiseManager, PromiseRequestSpec, PropExpr,
};
use promises::matching::{assign_slots, hopcroft_karp, BipartiteGraph};
use promises::rm::{Record, ResourceManager, Value};

// ---------------------------------------------------------------------
// Matching: incremental == batch
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The checker's augmenting-path matcher places every slot exactly
    /// when the batch maximum matching over the same graph is
    /// left-perfect, and what it places is a matching of that graph.
    #[test]
    fn incremental_matching_equals_batch(
        n_left in 1usize..12,
        n_right in 1usize..12,
        edge_bits in proptest::collection::vec(any::<bool>(), 144),
    ) {
        let mut graph = BipartiteGraph::new(n_left, n_right);
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_left];
        for l in 0..n_left {
            for r in 0..n_right {
                if edge_bits[l * 12 + r] {
                    graph.add_edge(l, r);
                    adj[l].push(r);
                }
            }
        }

        let placed = assign_slots(0..n_right, &adj);
        let batch = hopcroft_karp(&graph);
        prop_assert_eq!(placed.is_some(), batch.is_left_perfect());
        if let Some(placed) = placed {
            let mut used = vec![false; n_right];
            for (l, &r) in placed.iter().enumerate() {
                prop_assert!(r < n_right, "slot {} placed outside the rights: {}", l, r);
                prop_assert!(adj[l].contains(&r), "slot {} placed outside its list: {}", l, r);
                prop_assert!(!std::mem::replace(&mut used[r], true), "right {} placed twice", r);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Predicate language: display/parse round trip
// ---------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[a-z][a-z0-9 ]{0,8}".prop_map(Value::Str),
    ]
}

fn arb_cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_expr() -> impl Strategy<Value = PropExpr> {
    let leaf = prop_oneof![
        Just(PropExpr::True),
        ("[a-z][a-z0-9_]{0,6}", arb_cmp_op(), arb_value())
            .prop_map(|(prop, op, value)| PropExpr::Cmp { prop, op, value }),
        ("[a-z][a-z0-9_]{0,6}", "[a-z]{1,6}").prop_map(|(prop, v)| PropExpr::AtLeastRank {
            prop,
            value: Value::Str(v),
        }),
    ];
    // And/Or with 2+ children only: a 1-element conjunction displays as a
    // parenthesised inner expression, which parses back to the inner node
    // (semantically identical, structurally different).
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(PropExpr::And),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(PropExpr::Or),
            inner.clone().prop_map(|e| PropExpr::Not(Box::new(e))),
            inner.prop_map(|e| PropExpr::Desirable(Box::new(e))),
        ]
    })
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        ("[a-z][a-z0-9 -]{0,10}", 0u64..10_000)
            .prop_map(|(pool, amount)| Predicate::qty_at_least(pool.as_str(), amount)),
        ("[a-z][a-z0-9 -]{0,10}", "[a-z0-9-]{1,10}")
            .prop_map(|(pool, inst)| Predicate::named(pool.as_str(), inst.as_str())),
        ("[a-z][a-z0-9 -]{0,10}", arb_expr(), 1u32..5)
            .prop_map(|(pool, expr, count)| Predicate::property(pool.as_str(), expr, count)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `parse(display(p)) == p` for every generated predicate.
    #[test]
    fn predicate_display_parse_roundtrip(pred in arb_predicate()) {
        let text = pred.to_string();
        let parsed = parse_predicate(&text)
            .map_err(|e| TestCaseError::fail(format!("{text:?}: {e}")))?;
        prop_assert_eq!(parsed, pred, "text was {}", text);
    }

    /// Weakening only ever removes desirable obligations: any record that
    /// satisfies the original (desirables-included) expression satisfies
    /// every weakened form, provided desirables appear in positive
    /// positions (conjunctions).
    #[test]
    fn weakening_is_monotone_for_positive_desirables(
        floors in proptest::collection::vec(0i64..6, 1..6),
        drop in 0usize..5,
    ) {
        // Build And(floor == f0, desirable(floor >= f1), ...).
        let mut clauses = vec![PropExpr::eq("floor", floors[0])];
        for f in &floors[1..] {
            clauses.push(PropExpr::cmp("floor", CmpOp::Ge, *f).desirable());
        }
        let expr = PropExpr::all(clauses);
        let schema = PoolSchema::instances("p", vec![]);
        for floor in 0..6i64 {
            let rec = Record::new().with("floor", floor);
            if expr.eval(&rec, &schema) {
                prop_assert!(
                    expr.weakened(drop).eval(&rec, &schema),
                    "weakened form rejected a record the original accepted"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// RM: transactional semantics vs a sequential model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RmOp {
    Put(u8, i64),
    Delete(u8),
    Get(u8),
}

fn arb_rm_ops() -> impl Strategy<Value = Vec<(bool, Vec<RmOp>)>> {
    let op = prop_oneof![
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| RmOp::Put(k % 16, v)),
        any::<u8>().prop_map(|k| RmOp::Delete(k % 16)),
        any::<u8>().prop_map(|k| RmOp::Get(k % 16)),
    ];
    proptest::collection::vec((any::<bool>(), proptest::collection::vec(op, 1..8)), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A sequence of transactions — some committed, some aborted — leaves
    /// the store exactly as a sequential model that only applies the
    /// committed ones.
    #[test]
    fn rm_matches_sequential_model(txns in arb_rm_ops()) {
        let rm = ResourceManager::new();
        rm.create_table("t");
        let mut model: BTreeMap<String, i64> = BTreeMap::new();

        for (commit, ops) in txns {
            let txn = rm.begin();
            let mut local = model.clone();
            for op in ops {
                match op {
                    RmOp::Put(k, v) => {
                        let key = format!("k{k}");
                        rm.put(&txn, "t", &key, Record::new().with("v", v)).unwrap();
                        local.insert(key, v);
                    }
                    RmOp::Delete(k) => {
                        let key = format!("k{k}");
                        let res = rm.delete(&txn, "t", &key);
                        prop_assert_eq!(res.is_ok(), local.remove(&key).is_some());
                    }
                    RmOp::Get(k) => {
                        let key = format!("k{k}");
                        let got = rm.get(&txn, "t", &key).unwrap().and_then(|r| r.int("v"));
                        prop_assert_eq!(got, local.get(&key).copied());
                    }
                }
            }
            if commit {
                rm.commit(txn).unwrap();
                model = local;
            } else {
                rm.abort(txn).unwrap();
            }
        }

        let txn = rm.begin();
        let rows = rm.scan(&txn, "t").unwrap();
        rm.commit(txn).unwrap();
        let actual: BTreeMap<String, i64> = rows
            .into_iter()
            .map(|(k, r)| (k, r.int("v").unwrap()))
            .collect();
        prop_assert_eq!(actual, model);
    }
}

// ---------------------------------------------------------------------
// Promise manager: the anonymous-view safety invariant
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PmOp {
    Request(u8),
    Release(usize),
    Consume(usize),
    Advance(u16),
}

fn arb_pm_ops() -> impl Strategy<Value = Vec<PmOp>> {
    let op = prop_oneof![
        (1u8..6).prop_map(PmOp::Request),
        any::<usize>().prop_map(PmOp::Release),
        any::<usize>().prop_map(PmOp::Consume),
        (1u16..2_000).prop_map(PmOp::Advance),
    ];
    proptest::collection::vec(op, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any sequence of grants, releases, consumptions and clock
    /// advances: (a) quantity on hand never goes negative, (b) the sum of
    /// live promised quantities never exceeds quantity on hand, and (c)
    /// protected consumption never fails for lack of stock.
    #[test]
    fn anonymous_promises_never_oversubscribe(ops in arb_pm_ops()) {
        const INITIAL: u64 = 20;
        let clock = Arc::new(ManualClock::new());
        let pm = PromiseManager::new(
            Arc::new(ResourceManager::new()),
            Arc::clone(&clock) as Arc<dyn promises::core::Clock>,
        );
        pm.register_pool(PoolSchema::quantity("w"));
        pm.seed_quantity("w", INITIAL).unwrap();

        let mut live: Vec<(PromiseId, u64)> = Vec::new();
        let mut n = 0u64;
        for op in ops {
            match op {
                PmOp::Request(amount) => {
                    n += 1;
                    let resp = pm.request(
                        PromiseRequestSpec::new(
                            promises::core::RequestId(format!("r{n}")),
                            promises::core::ClientId("prop".into()),
                        )
                        .predicate(Predicate::qty_at_least("w", amount as u64))
                        .duration_ms(1_000),
                    ).unwrap();
                    if let Some(id) = resp.decision.granted_id() {
                        live.push((id, amount as u64));
                    }
                }
                PmOp::Release(i) if !live.is_empty() => {
                    let (id, _) = live.remove(i % live.len());
                    // May already be expired+pruned: both outcomes legal.
                    let _ = pm.release(id);
                }
                PmOp::Consume(i) if !live.is_empty() => {
                    let (id, amount) = live.remove(i % live.len());
                    let result = pm.execute(
                        &Environment::none().releasing(id),
                        |rm, txn| {
                            let mut enough = false;
                            rm.update(txn, Catalog::QTY_TABLE, "w", |r| {
                                let q = r.int("qty").unwrap_or(0);
                                if q >= amount as i64 {
                                    enough = true;
                                    r.set("qty", q - amount as i64);
                                }
                            }).map_err(ActionError::from)?;
                            if enough { Ok(()) } else { Err("stock vanished".into()) }
                        },
                    );
                    match result {
                        Ok(()) => {}
                        Err(promises::core::PromiseError::PromiseExpired(_)) => {}
                        Err(promises::core::PromiseError::UnknownPromise(_)) => {}
                        // (c): a live promise must never see missing stock.
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                PmOp::Advance(ms) => {
                    clock.advance(ms as u64);
                    // Drop handles we know are expired so later ops use
                    // mostly-live promises.
                    let now = clock.now_ms();
                    live.retain(|(id, _)| {
                        pm.promise(*id).map(|r| r.is_live(now)).unwrap_or(false)
                    });
                }
                _ => {}
            }

            // Invariants after every step.
            let rm = pm.rm();
            let txn = rm.begin();
            let on_hand = rm
                .get(&txn, Catalog::QTY_TABLE, "w").unwrap()
                .and_then(|r| r.int("qty"))
                .unwrap_or(0);
            rm.commit(txn).unwrap();
            prop_assert!(on_hand >= 0, "stock went negative");
            let now = clock.now_ms();
            let demand: u64 = live
                .iter()
                .filter_map(|(id, amt)| {
                    pm.promise(*id).filter(|r| r.is_live(now)).map(|_| *amt)
                })
                .sum();
            prop_assert!(
                demand as i64 <= on_hand,
                "live demand {demand} exceeds on-hand {on_hand}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Promise manager: overlapping multi-pool footprints
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum MpOp {
    /// Request `(amount on "w", amount on "x")`; 0 skips that pool, so
    /// promises cover w-only, x-only, or overlap both.
    Request(u8, u8),
    Release(usize),
    Consume(usize),
    Advance(u16),
}

fn arb_mp_ops() -> impl Strategy<Value = Vec<MpOp>> {
    let op = prop_oneof![
        (0u8..5, 0u8..5).prop_map(|(w, x)| MpOp::Request(w, x)),
        any::<usize>().prop_map(MpOp::Release),
        any::<usize>().prop_map(MpOp::Consume),
        (1u16..2_000).prop_map(MpOp::Advance),
    ];
    proptest::collection::vec(op, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The single-pool invariants hold per pool when promises overlap two
    /// pools under footprint-scoped locking, and — in debug builds — the
    /// table's cached quantity aggregate (with its pool and expiry
    /// indexes) is re-derived from the records and asserted equal on every
    /// table mutation, so any drift in it fails this property
    /// immediately. The demand the checker is handed is not re-asserted;
    /// `footprint_scoping.rs`' model judges the decisions made from it.
    #[test]
    fn overlapping_multi_pool_promises_never_oversubscribe(ops in arb_mp_ops()) {
        const INITIAL: u64 = 20;
        let clock = Arc::new(ManualClock::new());
        let pm = PromiseManager::new(
            Arc::new(ResourceManager::new()),
            Arc::clone(&clock) as Arc<dyn promises::core::Clock>,
        );
        for pool in ["w", "x"] {
            pm.register_pool(PoolSchema::quantity(pool));
            pm.seed_quantity(pool, INITIAL).unwrap();
        }

        let mut live: Vec<(PromiseId, u64, u64)> = Vec::new();
        let mut n = 0u64;
        for op in ops {
            match op {
                MpOp::Request(w, x) if w + x > 0 => {
                    n += 1;
                    let mut spec = PromiseRequestSpec::new(
                        promises::core::RequestId(format!("m{n}")),
                        promises::core::ClientId("prop".into()),
                    )
                    .duration_ms(1_000);
                    if w > 0 {
                        spec = spec.predicate(Predicate::qty_at_least("w", w as u64));
                    }
                    if x > 0 {
                        spec = spec.predicate(Predicate::qty_at_least("x", x as u64));
                    }
                    let resp = pm.request(spec).unwrap();
                    if let Some(id) = resp.decision.granted_id() {
                        live.push((id, w as u64, x as u64));
                    }
                }
                MpOp::Release(i) if !live.is_empty() => {
                    let (id, _, _) = live.remove(i % live.len());
                    let _ = pm.release(id);
                }
                MpOp::Consume(i) if !live.is_empty() => {
                    let (id, w, x) = live.remove(i % live.len());
                    let result = pm.execute(
                        &Environment::none().releasing(id),
                        move |rm, txn| {
                            for (pool, amt) in [("w", w), ("x", x)] {
                                if amt == 0 {
                                    continue;
                                }
                                let mut enough = false;
                                rm.update(txn, Catalog::QTY_TABLE, pool, |r| {
                                    let q = r.int("qty").unwrap_or(0);
                                    if q >= amt as i64 {
                                        enough = true;
                                        r.set("qty", q - amt as i64);
                                    }
                                }).map_err(ActionError::from)?;
                                if !enough {
                                    return Err("stock vanished".into());
                                }
                            }
                            Ok(())
                        },
                    );
                    match result {
                        Ok(()) => {}
                        Err(promises::core::PromiseError::PromiseExpired(_)) => {}
                        Err(promises::core::PromiseError::UnknownPromise(_)) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                MpOp::Advance(ms) => {
                    clock.advance(ms as u64);
                    let now = clock.now_ms();
                    live.retain(|(id, _, _)| {
                        pm.promise(*id).map(|r| r.is_live(now)).unwrap_or(false)
                    });
                }
                _ => {}
            }

            // Per-pool invariants after every step.
            let now = clock.now_ms();
            for (pool, pick) in [
                ("w", (|t: &(PromiseId, u64, u64)| (t.0, t.1)) as fn(&(PromiseId, u64, u64)) -> (PromiseId, u64)),
                ("x", |t| (t.0, t.2)),
            ] {
                let rm = pm.rm();
                let txn = rm.begin();
                let on_hand = rm
                    .get(&txn, Catalog::QTY_TABLE, pool).unwrap()
                    .and_then(|r| r.int("qty"))
                    .unwrap_or(0);
                rm.commit(txn).unwrap();
                prop_assert!(on_hand >= 0, "{pool} stock went negative");
                let demand: u64 = live
                    .iter()
                    .map(pick)
                    .filter_map(|(id, amt)| {
                        pm.promise(id).filter(|r| r.is_live(now)).map(|_| amt)
                    })
                    .sum();
                prop_assert!(
                    demand as i64 <= on_hand,
                    "{pool}: live demand {demand} exceeds on-hand {on_hand}"
                );
            }
        }
    }
}
