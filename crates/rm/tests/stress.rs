//! Stress and isolation tests for the resource manager.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use promises_rm::{Record, ResourceManager, RmError};

#[test]
fn bank_transfer_invariant_under_heavy_contention() {
    // Classic transfer test: total balance is invariant under concurrent
    // random transfers with deadlock retries.
    const ACCOUNTS: usize = 8;
    const PER_ACCOUNT: i64 = 1_000;
    let rm = Arc::new(ResourceManager::new());
    rm.create_table("accounts");
    let tx = rm.begin();
    for i in 0..ACCOUNTS {
        rm.insert(
            &tx,
            "accounts",
            &format!("a{i}"),
            Record::new().with("balance", PER_ACCOUNT),
        )
        .unwrap();
    }
    rm.commit(tx).unwrap();

    let transfers = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let rm = Arc::clone(&rm);
            let transfers = Arc::clone(&transfers);
            scope.spawn(move || {
                // Deterministic pseudo-random pairs per thread.
                let mut x = (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                for _ in 0..50 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let from = (x as usize) % ACCOUNTS;
                    let to = (x as usize / ACCOUNTS) % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let amount = (x % 50) as i64;
                    rm.transact(200, |txn| {
                        rm.update(txn, "accounts", &format!("a{from}"), |r| {
                            let b = r.int("balance").unwrap();
                            r.set("balance", b - amount);
                        })?;
                        rm.update(txn, "accounts", &format!("a{to}"), |r| {
                            let b = r.int("balance").unwrap();
                            r.set("balance", b + amount);
                        })
                    })
                    .unwrap();
                    transfers.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert!(transfers.load(Ordering::Relaxed) > 0);
    let tx = rm.begin();
    let total: i64 = rm
        .scan(&tx, "accounts")
        .unwrap()
        .iter()
        .map(|(_, r)| r.int("balance").unwrap())
        .sum();
    rm.commit(tx).unwrap();
    assert_eq!(total, ACCOUNTS as i64 * PER_ACCOUNT, "money conserved");
    assert_eq!(rm.locked_granules(), 0, "no leaked locks");
}

#[test]
fn scan_blocks_concurrent_insert_no_phantoms() {
    // A scanner holding the table S lock must not see phantom inserts:
    // the insert blocks until the scanner commits — behind the borrowing
    // `scan_with` exactly as behind the copying `scan`.
    type CountRows = fn(&ResourceManager, &promises_rm::Txn) -> usize;
    let scans: [CountRows; 2] = [
        |rm, txn| rm.scan(txn, "t").unwrap().len(),
        |rm, txn| {
            let mut rows = 0;
            rm.scan_with(txn, "t", |_, _| rows += 1).unwrap();
            rows
        },
    ];
    for scan in scans {
        let rm = Arc::new(ResourceManager::new());
        rm.create_table("t");
        let tx = rm.begin();
        rm.insert(&tx, "t", "k1", Record::new()).unwrap();
        rm.commit(tx).unwrap();

        let scanner = rm.begin();
        let first = scan(&rm, &scanner);

        let rm2 = Arc::clone(&rm);
        let writer = std::thread::spawn(move || {
            rm2.transact(10, |txn| rm2.insert(txn, "t", "k2", Record::new()))
                .unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(40));
        assert!(!writer.is_finished(), "insert must wait for the table lock");
        // Repeatable: the second scan in the same txn sees the same rows.
        let second = scan(&rm, &scanner);
        assert_eq!(first, second);
        rm.commit(scanner).unwrap();
        writer.join().unwrap();
    }
}

#[test]
fn aborted_writer_leaves_no_trace_for_waiting_reader() {
    let rm = Arc::new(ResourceManager::new());
    rm.create_table("t");
    let tx = rm.begin();
    rm.insert(&tx, "t", "k", Record::new().with("v", 1i64))
        .unwrap();
    rm.commit(tx).unwrap();

    let writer = rm.begin();
    rm.update(&writer, "t", "k", |r| r.set("v", 99i64)).unwrap();

    let rm2 = Arc::clone(&rm);
    let reader = std::thread::spawn(move || {
        rm2.transact(10, |txn| {
            Ok(rm2.get(txn, "t", "k").unwrap().unwrap().int("v").unwrap())
        })
        .unwrap()
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    rm.abort(writer).unwrap();
    assert_eq!(reader.join().unwrap(), 1, "reader sees pre-abort value");
}

#[test]
fn many_tables_many_threads_smoke() {
    let rm = Arc::new(ResourceManager::new());
    for i in 0..16 {
        rm.create_table(&format!("t{i}"));
    }
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let rm = Arc::clone(&rm);
            scope.spawn(move || {
                for i in 0..100usize {
                    let table = format!("t{}", (t * 3 + i) % 16);
                    let key = format!("k{}", i % 10);
                    rm.transact(100, |txn| match rm.get(txn, &table, &key)? {
                        Some(mut rec) => {
                            let v = rec.int("v").unwrap_or(0);
                            rec.set("v", v + 1);
                            rm.put(txn, &table, &key, rec).map(|_| ())
                        }
                        None => rm
                            .put(txn, &table, &key, Record::new().with("v", 1i64))
                            .map(|_| ()),
                    })
                    .unwrap();
                }
            });
        }
    });
    // Sum of all counters equals total operations.
    let tx = rm.begin();
    let mut total = 0i64;
    for i in 0..16 {
        for (_, rec) in rm.scan(&tx, &format!("t{i}")).unwrap() {
            total += rec.int("v").unwrap();
        }
    }
    rm.commit(tx).unwrap();
    assert_eq!(total, 8 * 100);
}

#[test]
fn write_set_reports_touched_records_in_order() {
    let rm = ResourceManager::new();
    rm.create_table("a");
    rm.create_table("b");
    let tx = rm.begin();
    assert!(rm.write_set(&tx).unwrap().is_empty());
    rm.insert(&tx, "a", "k1", Record::new()).unwrap();
    rm.insert(&tx, "b", "k2", Record::new()).unwrap();
    rm.update(&tx, "a", "k1", |r| r.set("x", 1i64)).unwrap(); // no new entry
    let ws = rm.write_set(&tx).unwrap();
    assert_eq!(
        ws.keys().cloned().collect::<Vec<_>>(),
        vec![
            ("a".to_owned(), "k1".to_owned()),
            ("b".to_owned(), "k2".to_owned())
        ]
    );
    // Each row comes with the image the transaction will commit.
    let written = &ws[&("a".to_owned(), "k1".to_owned())];
    assert_eq!(written.as_ref().and_then(|r| r.int("x")), Some(1));
    rm.commit(tx).unwrap();
    // write_set on finished transactions errors rather than lying.
    let dead = rm.begin();
    let id = dead.id();
    rm.abort(dead).unwrap();
    let _ = id;
    // A deleted row's image is `None`.
    let tx2 = rm.begin();
    rm.delete(&tx2, "b", "k2").unwrap();
    assert_eq!(
        rm.write_set(&tx2).unwrap()[&("b".into(), "k2".into())],
        None
    );
    rm.commit(tx2).unwrap();
}

#[test]
fn deadlock_error_identifies_victim() {
    let rm = Arc::new(ResourceManager::new());
    rm.create_table("t");
    let tx = rm.begin();
    rm.insert(&tx, "t", "a", Record::new()).unwrap();
    rm.insert(&tx, "t", "b", Record::new()).unwrap();
    rm.commit(tx).unwrap();

    let t1 = rm.begin();
    rm.update(&t1, "t", "a", |_| {}).unwrap();
    let rm2 = Arc::clone(&rm);
    let other = std::thread::spawn(move || {
        let t2 = rm2.begin();
        rm2.update(&t2, "t", "b", |_| {}).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(40));
        let r = rm2.update(&t2, "t", "a", |_| {});
        let id = t2.id();
        rm2.abort(t2).unwrap();
        (r, id)
    });
    std::thread::sleep(std::time::Duration::from_millis(20));
    let mine = rm.update(&t1, "t", "b", |_| {});
    let my_id = t1.id();
    rm.abort(t1).unwrap();
    let (theirs, their_id) = other.join().unwrap();
    // Exactly the victim's own id appears in its error.
    match (mine, theirs) {
        (Err(RmError::Deadlock { txn }), _) => assert_eq!(txn, my_id),
        (_, Err(RmError::Deadlock { txn })) => assert_eq!(txn, their_id),
        (Ok(()), Ok(())) => panic!("someone must have been victimised"),
        other => panic!("unexpected: {other:?}"),
    }
}
