//! Property tests for flight-recorder wraparound and concurrent
//! snapshots: a reader merging N worker rings under concurrent writers
//! always observes per-worker monotone, internally consistent events;
//! after quiescence the surviving window is exactly gap-free modulo
//! overwrite, with every overwritten event counted by `dropped_events`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use omg_obs::{FlightRecorder, Stage, TraceSnapshot};

/// Writers stamp `ts = seq` and `payload = seq * 31 + worker`, so any
/// torn read that mixed two events' words is detectable.
fn check_consistency(snap: &TraceSnapshot, workers: usize, events: u64, cap: u64) {
    let mut last_seq = vec![None::<u64>; workers];
    for ev in &snap.events {
        assert!(ev.worker < workers, "ghost worker {}", ev.worker);
        assert!(ev.seq < events, "seq {} out of range", ev.seq);
        assert_eq!(ev.ts_ns, ev.seq, "torn event surfaced (ts/seq mismatch)");
        assert_eq!(
            ev.payload,
            ev.seq * 31 + ev.worker as u64,
            "torn event surfaced (payload mismatch)"
        );
        // Per-worker monotone: the merged, time-ordered trace preserves
        // each single-writer ring's write order.
        if let Some(prev) = last_seq[ev.worker] {
            assert!(
                ev.seq > prev,
                "worker {} not monotone: {} after {}",
                ev.worker,
                ev.seq,
                prev
            );
        }
        last_seq[ev.worker] = Some(ev.seq);
    }
    // All survivors from one ring fit inside one capacity window.
    for w in 0..workers {
        let seqs: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| e.worker == w)
            .map(|e| e.seq)
            .collect();
        if let (Some(&min), Some(&max)) = (seqs.first(), seqs.last()) {
            assert!(max - min < cap, "worker {w} window wider than capacity");
        }
    }
}

proptest::proptest! {
    /// Concurrent writers + a continuously snapshotting reader, then a
    /// quiescent check of the exact surviving window.
    #[test]
    fn prop_merged_snapshots_are_monotone_and_count_drops(
        workers in 1usize..5,
        capacity in 1usize..80,
        events in 1u64..300,
    ) {
        let rec = Arc::new(FlightRecorder::new(workers, capacity));
        let cap = rec.capacity() as u64;
        // Writers, reader and this thread all pass one barrier, so the
        // reader's first snapshot cannot come after the writers finish.
        let start = Arc::new(Barrier::new(workers + 2));
        let stop = Arc::new(AtomicBool::new(false));

        let writer_handles: Vec<_> = (0..workers)
            .map(|w| {
                let rec = Arc::clone(&rec);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for seq in 0..events {
                        let stage = Stage::ALL[(seq % 8) as usize];
                        rec.record_at(w, stage, seq, seq * 31 + w as u64, seq);
                    }
                })
            })
            .collect();

        let reader = {
            let rec = Arc::clone(&rec);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                // Snapshot first, then check `stop`: at least one snapshot
                // is taken however fast the writers are.
                let mut snaps = 0u32;
                loop {
                    snaps += 1;
                    check_consistency(&rec.snapshot(), workers, events, cap);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                snaps
            })
        };

        start.wait();
        for h in writer_handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        proptest::prop_assert!(reader.join().unwrap() > 0);

        // Quiescent: the window is exactly the newest `min(events, cap)`
        // per worker — gap-free modulo overwrite — and every evicted
        // event is counted.
        let snap = rec.snapshot();
        check_consistency(&snap, workers, events, cap);
        proptest::prop_assert_eq!(snap.torn, 0);
        let overwritten_per_worker = events.saturating_sub(cap);
        let expected: Vec<u64> = (overwritten_per_worker..events).collect();
        for w in 0..workers {
            let seqs: Vec<u64> = snap
                .events
                .iter()
                .filter(|e| e.worker == w)
                .map(|e| e.seq)
                .collect();
            proptest::prop_assert_eq!(&seqs, &expected, "worker {} window", w);
        }
        proptest::prop_assert_eq!(
            rec.dropped_events(),
            overwritten_per_worker * workers as u64
        );
        proptest::prop_assert_eq!(snap.dropped, overwritten_per_worker * workers as u64);
        proptest::prop_assert_eq!(rec.total_recorded(), events * workers as u64);
    }
}
