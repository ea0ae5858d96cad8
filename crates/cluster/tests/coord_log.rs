//! The coordinator log's lines: the bytes each record writes, and what a
//! damaged line does when the log is read back.

use std::collections::HashSet;

use promises_cluster::{CoordRecord, CoordinatorLog, TxnId};

/// A transaction whose client and request hold the log's old separator
/// (`|`), every character the field codec rewrites (`%`, tab, CR, LF)
/// and one it keeps (`ü`).
fn odd() -> TxnId {
    TxnId::new("c|%\t\r\nü", "r|%\t\r\nü")
}

/// The records [`golden_lines`] appends, oldest first.
fn records() -> Vec<CoordRecord> {
    let plain = TxnId::new("c", "r");
    vec![
        CoordRecord::Begin {
            txn: odd(),
            shards: vec![0, 2, 11],
        },
        CoordRecord::Commit { txn: odd() },
        CoordRecord::Begin {
            txn: plain.clone(),
            shards: vec![1],
        },
        CoordRecord::Abort { txn: plain },
        CoordRecord::Begin {
            txn: TxnId::new("c", "lost"),
            shards: vec![0, 1],
        },
    ]
}

/// The lines of [`records`], then the lines one compaction leaves.
fn golden_lines() -> (CoordinatorLog, Vec<String>) {
    let log = CoordinatorLog::new();
    for rec in records() {
        log.append(rec);
    }
    let mut lines = log.lines();
    log.compact(&HashSet::new()).unwrap();
    lines.extend(log.lines());
    (log, lines)
}

#[test]
fn coordinator_log_lines_keep_their_bytes() {
    let (log, lines) = golden_lines();
    let want = [
        "1\t0\tB\tc|%25%09%0D%0Aü\tr|%25%09%0D%0Aü\t3\t0\t2\t11\t.",
        "2\t0\tC\tc|%25%09%0D%0Aü\tr|%25%09%0D%0Aü\t.",
        "3\t0\tB\tc\tr\t1\t1\t.",
        "4\t0\tA\tc\tr\t.",
        "5\t0\tB\tc\tlost\t2\t0\t1\t.",
        // Compaction: the in-doubt `Begin` first, then the unacknowledged
        // commit's `Begin` and `Commit`, each at a new sequence number.
        "6\t0\tB\tc\tlost\t2\t0\t1\t.",
        "7\t0\tB\tc|%25%09%0D%0Aü\tr|%25%09%0D%0Aü\t3\t0\t2\t11\t.",
        "8\t0\tC\tc|%25%09%0D%0Aü\tr|%25%09%0D%0Aü\t.",
    ];
    assert_eq!(lines, want);
    // Read back, the lines are the records they were written from.
    let written = CoordinatorLog::from_lines(&lines[..5]).unwrap();
    assert_eq!(written.entries().unwrap(), records());
    let compacted = CoordinatorLog::from_lines(&lines[5..]).unwrap();
    assert_eq!(compacted.entries().unwrap(), log.entries().unwrap());
    assert_eq!(log.len(), 3, "one line per kept record");
}

#[test]
fn damaged_coordinator_lines_are_errors_not_panics() {
    let (_, lines) = golden_lines();
    for line in &lines {
        assert!(CoordinatorLog::from_lines(&[line]).is_ok());
        for cut in (0..line.len()).filter(|&at| line.is_char_boundary(at)) {
            let torn = CoordinatorLog::from_lines(&[&line[..cut]]);
            assert!(torn.is_err(), "{:?} decoded", &line[..cut]);
        }
    }
    let begin = &lines[0];
    for (good, bad) in [
        // Tags.
        ("\tB\t", "\tZ\t"),
        ("\tB\t", "\tb\t"),
        ("\tB\t", "\t\t"),
        ("\tB\t", "\tBB\t"),
        // Counts: one short, one over, not a number, negative.
        ("\t3\t0", "\t2\t0"),
        ("\t3\t0", "\t4\t0"),
        ("\t3\t0", "\tthree\t0"),
        ("\t3\t0", "\t-1\t0"),
        ("\t3\t0", "\t18446744073709551616\t0"),
        // Shard lists: not a number, out of order, repeated, empty field.
        ("\t0\t2\t11", "\t0\tx\t11"),
        ("\t0\t2\t11", "\t2\t0\t11"),
        ("\t0\t2\t11", "\t0\t2\t2"),
        ("\t0\t2\t11", "\t0\t\t11"),
        // The end mark: gone, changed, followed by more.
        ("\t11\t.", "\t11"),
        ("\t11\t.", "\t11\t,"),
        ("\t11\t.", "\t11\t.\t."),
        // The head.
        ("1\t0\t", "x\t0\t"),
        ("1\t0\t", "1\t\t"),
    ] {
        let broken = begin.replacen(good, bad, 1);
        assert_ne!(&broken, begin, "{good:?} not in the line");
        let err = CoordinatorLog::from_lines(&[&broken]).err();
        assert_eq!(err.map(|e| e.line), Some(0), "{broken:?} decoded");
    }
    // A damaged interior line is an error whichever line it is.
    let mut damaged = lines.clone();
    damaged[3] = damaged[3].replacen("\tA\t", "\tQ\t", 1);
    let err = CoordinatorLog::from_lines(&damaged).err();
    assert_eq!(err.map(|e| e.line), Some(3));
}
