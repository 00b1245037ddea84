//! Negative control for the whole approach: a deliberately broken
//! park/push protocol — the consumer checks for work *before* taking the
//! sleep lock and then parks without re-checking — must be caught by the
//! explorer at a small bound, with a replayable schedule.
//!
//! The real pool has no such window: its workers check the queue and park
//! under the one lock `PoolCore::push` notifies under. The fixture keeps
//! the queue and the parking lot as two locks on purpose, because that is
//! the shape in which a lost wakeup can be written at all.

use std::collections::VecDeque;
use std::sync::Arc;

use mixen_check::sync::{Condvar, Mutex};
use mixen_check::{check, explore, replay, thread, Config, FailureKind};

/// A minimal job queue plus a separate parking lot.
struct MiniPool {
    queue: Mutex<VecDeque<u32>>,
    sleep: Mutex<()>,
    wakeup: Condvar,
}

impl MiniPool {
    fn new() -> Arc<MiniPool> {
        Arc::new(MiniPool {
            queue: Mutex::new(VecDeque::new()),
            sleep: Mutex::new(()),
            wakeup: Condvar::new(),
        })
    }

    /// The producer side: enqueue, then notify while holding the sleep
    /// lock.
    fn push(&self, job: u32) {
        self.queue.lock().unwrap().push_back(job);
        let _park = self.sleep.lock().unwrap();
        self.wakeup.notify_all();
    }

    fn has_work(&self) -> bool {
        !self.queue.lock().unwrap().is_empty()
    }

    /// The consumer side. `broken` checks for work *outside* the sleep lock
    /// and parks unconditionally — the push/notify can land in the window
    /// between the check and the wait, and the modeled no-timeout `wait`
    /// then sleeps forever. The fixed variant re-checks under the lock in a
    /// loop.
    fn consume_one(&self, broken: bool) -> u32 {
        if broken {
            if !self.has_work() {
                let guard = self.sleep.lock().unwrap();
                // BUG: no re-check of the queue under the lock.
                let _ = self.wakeup.wait(guard).unwrap();
            }
        } else {
            let mut guard = self.sleep.lock().unwrap();
            while !self.has_work() {
                guard = self.wakeup.wait(guard).unwrap();
            }
            drop(guard);
        }
        self.queue
            .lock()
            .unwrap()
            .pop_front()
            .expect("woken with an empty queue")
    }
}

fn protocol(broken: bool) -> impl Fn() {
    move || {
        let pool = MiniPool::new();
        let consumer = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.consume_one(broken))
        };
        pool.push(7);
        assert_eq!(consumer.join().unwrap(), 7);
    }
}

/// The broken variant is caught as a deadlock (lost wakeup) at bound 2,
/// the failure prints a replayable schedule, and `replay` reproduces it.
#[test]
fn park_without_recheck_is_caught_and_replayable() {
    let report = explore(Config::default(), protocol(true));
    let failure = report
        .failure
        .expect("the missed-wakeup window must be found");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(!failure.schedule.is_empty(), "schedule must be replayable");
    assert!(
        !failure.trace.is_empty(),
        "trace must name the yield points"
    );

    // The printed report carries both; show it, as a real run would.
    println!("{failure}");

    let replayed = replay(&failure.schedule, protocol(true))
        .expect("replaying the printed schedule must reproduce the deadlock");
    assert_eq!(replayed.kind, FailureKind::Deadlock);
}

/// The fixed variant explores cleanly.
#[test]
fn recheck_under_the_lock_is_clean() {
    let report = check("fixed_park_protocol", Config::default(), protocol(false));
    assert!(report.schedules > 1, "explored {}", report.schedules);
    assert!(!report.capped);
}
