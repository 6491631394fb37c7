//! Model-checked interleavings of the portable seqlock CAS2 fallback
//! (under `--cfg loom` every `AtomicPair` operation routes through it),
//! run by the ci.sh loom gate:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lcrq-atomic --test loom -q
//! ```
//!
//! These models check the properties the CRQ algorithms lean on: CAS2 is
//! atomic across both words (no lost updates, no torn 128-bit loads), and
//! the lock-free per-word reads of `load_first`/`load_second` observe only
//! values that some CAS2 actually committed, torn only the way the native
//! instruction can tear them (plus the planted word-0-first twin, which
//! the checker must catch tearing the other way).
#![cfg(loom)]

use lcrq_atomic::{cas2_backend, AtomicPair};
use lcrq_util::model::{thread, Builder, Report};
use std::sync::Arc;

#[test]
fn loom_build_routes_through_the_fallback() {
    assert_eq!(cas2_backend(), "seqlock-fallback (loom model)");
}

#[test]
fn concurrent_cas2_increments_lose_nothing() {
    let report = Builder::new().check(|| {
        let p = Arc::new(AtomicPair::new(0, 0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&p);
                thread::spawn(move || loop {
                    let cur = p.load();
                    if p.compare_exchange(cur, (cur.0 + 1, cur.1 + 2)).is_ok() {
                        return;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.load(), (2, 4), "a CAS2 increment was lost");
    });
    assert!(
        report.executions > 1,
        "must explore >1 interleaving: {report:?}"
    );
}

#[test]
fn pair_load_probe_is_never_torn() {
    // The 128-bit load (a CAS2 probe) takes the stripe lock, so it must
    // never observe the writer's two word-stores half-applied.
    let report = Builder::new().check(|| {
        let p = Arc::new(AtomicPair::new(0, 0));
        let p2 = Arc::clone(&p);
        let w = thread::spawn(move || {
            assert_eq!(p2.compare_exchange((0, 0), (u64::MAX, u64::MAX)), Ok(()));
        });
        let (a, b) = p.load();
        assert_eq!(a, b, "torn 128-bit read through the fallback");
        w.join().unwrap();
        assert_eq!(p.load(), (u64::MAX, u64::MAX));
    });
    assert!(report.executions > 1);
}

type Cas2 = fn(&AtomicPair, (u64, u64), (u64, u64)) -> Result<(), (u64, u64)>;

/// load_first/load_second deliberately skip the stripe lock (the CRQ reads
/// val and <safe, idx> as two independent words). Racing a CAS2 they may
/// see the pair *mixed across words* — the CRQ's documented access model —
/// but each individual word must be a value some CAS2 wrote, and the mix
/// is one-way: read word 0 then word 1, the new word 0 never appears beside
/// the old word 1, as with the native instruction's one 16-byte store.
fn per_word_model(cas2: Cas2) -> Report {
    Builder::new().check(move || {
        let p = Arc::new(AtomicPair::new(1, 2));
        let p2 = Arc::clone(&p);
        let w = thread::spawn(move || {
            assert_eq!(cas2(&p2, (1, 2), (3, 4)), Ok(()));
        });
        let a = p.load_first();
        let b = p.load_second();
        assert!(a == 1 || a == 3, "word 0 out of thin air: {a}");
        assert!(b == 2 || b == 4, "word 1 out of thin air: {b}");
        assert!((a, b) != (3, 2), "new word 0 beside the old word 1");
        w.join().unwrap();
        assert_eq!(p.load(), (3, 4));
    })
}

#[test]
fn per_word_loads_observe_only_committed_values() {
    let report = per_word_model(AtomicPair::compare_exchange);
    assert!(report.executions > 1);
    assert!(report.complete, "bounded space not exhausted: {report:?}");
}

#[test]
fn word0_first_store_is_caught_tearing_the_wrong_way() {
    let payload =
        std::panic::catch_unwind(|| per_word_model(AtomicPair::compare_exchange_word0_first))
            .expect_err("the checker must reject the planted twin");
    let msg = payload
        .downcast_ref::<String>()
        .expect("model failures carry a String");
    assert!(
        msg.contains("beside the old word 1"),
        "wrong failure: {msg}"
    );
}

#[test]
fn racing_cas2_from_the_same_old_value_elects_exactly_one_winner() {
    let report = Builder::new().check(|| {
        let p = Arc::new(AtomicPair::new(0, 0));
        let p2 = Arc::clone(&p);
        let w = thread::spawn(move || p2.compare_exchange((0, 0), (7, 8)));
        let mine = p.compare_exchange((0, 0), (5, 6));
        let theirs = w.join().unwrap();
        match (mine, theirs) {
            // Exactly one CAS2 may win, and the loser must observe the
            // winner's committed pair — never (0,0), never a torn mix.
            (Ok(()), Err(seen)) => {
                assert_eq!(seen, (5, 6), "loser saw a torn/stale pair");
                assert_eq!(p.load(), (5, 6));
            }
            (Err(seen), Ok(())) => {
                assert_eq!(seen, (7, 8), "loser saw a torn/stale pair");
                assert_eq!(p.load(), (7, 8));
            }
            (a, b) => panic!("expected exactly one winner, got {a:?} / {b:?}"),
        }
    });
    assert!(report.executions > 1);
}
