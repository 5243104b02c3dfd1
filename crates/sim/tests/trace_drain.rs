//! A drain racing an appending thread returns every event exactly once.
//!
//! Alone in its own test binary: `trace::drain` takes the events of every
//! thread in the process.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use cycada_sim::trace::{self, Category};

const EVENTS: u64 = 50_000;
/// Appends between waits for the drainer: well under `RING_CAPACITY`, so
/// the ring never drops its oldest event and every loss is the drain's.
const WINDOW: u64 = 1_000;

#[test]
fn concurrent_drain_returns_every_event_exactly_once() {
    trace::set_enabled(true);
    let passes = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let mut args: Vec<u64> = thread::scope(|s| {
        s.spawn(|| {
            for i in 0..EVENTS {
                trace::instant(Category::App, "drain_race", i);
                if i % WINDOW == WINDOW - 1 {
                    // A drain pass that starts after this point takes
                    // every event appended so far.
                    let seen = passes.load(Ordering::SeqCst);
                    while passes.load(Ordering::SeqCst) < seen + 2 {
                        thread::yield_now();
                    }
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        let drainer = s.spawn(|| {
            let mut args = Vec::new();
            loop {
                let finished = done.load(Ordering::SeqCst);
                args.extend(
                    trace::drain().iter().filter(|e| e.name == "drain_race").map(|e| e.arg),
                );
                passes.fetch_add(1, Ordering::SeqCst);
                if finished {
                    return args;
                }
            }
        });
        drainer.join().expect("drainer panicked")
    });
    trace::set_enabled(false);
    let returned = args.len();
    args.sort_unstable();
    args.dedup();
    assert_eq!(args.len(), returned, "an event was returned twice");
    assert_eq!(returned as u64, EVENTS, "{} events were lost", EVENTS - returned as u64);
}
