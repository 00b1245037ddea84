//! Model tests pinning the pool's three core concurrency protocols: the
//! LIFO-owner/FIFO-thief deque claim, the injector push vs. park/unpark
//! wakeup window (plus the shutdown handshake), and scope panic propagation
//! and result publication. (Scatter needs no protocol of its own: each task
//! owns its bins and source segment through `&mut` slices.)
//!
//! Every protocol is explored exhaustively at 2–3 model threads with a
//! small preemption bound; modeled `wait_timeout` never times out, so the
//! pool's timeout safety nets are stripped and the handshakes themselves
//! must be airtight — a lost wakeup would surface as a deadlock here.

use std::sync::Arc;

use mixen_check::sync::atomic::{AtomicUsize, Ordering};
use mixen_check::{check, Config};
use mixen_pool::ThreadPool;

/// Protocol 1: the work-stealing deque claim race. A task running on a
/// worker opens a nested scope, which pushes two jobs onto that worker's
/// *own* deque: the owner pops LIFO from the back while the other worker
/// steals FIFO from the front (and the main lane may help via the
/// injector). Under every interleaving each job must run exactly once and
/// the nested scope must not return before both did.
#[test]
fn deque_claim_race_runs_every_job_exactly_once() {
    let report = check(
        "deque_claim_race",
        Config {
            preemption_bound: 1,
            max_schedules: 50_000,
            ..Config::default()
        },
        || {
            let counter = Arc::new(AtomicUsize::new(0));
            let pool = ThreadPool::new(3);
            let pool_ref = &pool;
            pool.scope(|s| {
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    // On a worker lane this nested scope spawns onto the
                    // worker's own deque; on the main lane (helping) it goes
                    // through the injector. Both routes are explored.
                    pool_ref.scope(|inner| {
                        for _ in 0..2 {
                            let c = Arc::clone(&counter);
                            inner.spawn(move || {
                                c.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                    // The nested scope has waited for both jobs.
                    assert_eq!(counter.load(Ordering::Acquire), 2);
                });
            });
            assert_eq!(counter.load(Ordering::Relaxed), 2);
        },
    );
    assert!(report.schedules > 1, "explored {}", report.schedules);
}

/// Protocol 2: injector push vs. park/unpark. With one worker and no work,
/// the worker parks on the wakeup condvar; the main lane pushes a job into
/// the injector and notifies under the sleep lock. The worker's
/// check-then-wait is closed by re-checking under that same lock — if the
/// window existed, the modeled no-timeout `wait` would deadlock. The pool
/// drop at the end also explores the shutdown-flag/notify/join handshake.
#[test]
fn injector_push_never_loses_the_wakeup() {
    let report = check(
        "injector_push_vs_park",
        Config {
            preemption_bound: 2,
            max_schedules: 50_000,
            ..Config::default()
        },
        || {
            let ran = Arc::new(AtomicUsize::new(0));
            let pool = ThreadPool::new(2);
            pool.scope(|s| {
                let ran = Arc::clone(&ran);
                s.spawn(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert_eq!(ran.load(Ordering::Relaxed), 1);
        },
    );
    assert!(report.schedules > 1, "explored {}", report.schedules);
}

/// Protocol 2 (fuzz tail): the same handshake under seeded random
/// schedules that ignore the preemption bound entirely.
#[test]
fn injector_push_survives_random_schedules() {
    let report = check(
        "injector_push_fuzz",
        Config {
            preemption_bound: 0,
            random_schedules: 64,
            seed: Some(0x504F_4F4C),
            max_schedules: 50_000,
            ..Config::default()
        },
        || {
            let ran = Arc::new(AtomicUsize::new(0));
            let pool = ThreadPool::new(2);
            pool.scope(|s| {
                let ran = Arc::clone(&ran);
                s.spawn(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert_eq!(ran.load(Ordering::Relaxed), 1);
        },
    );
    assert_eq!(report.random_schedules, 64);
}

/// Protocol 3a: a panicking task must propagate its payload out of
/// `scope()` on every schedule — never a lost panic, never a deadlocked
/// scope waiter.
#[test]
fn scope_propagates_the_task_panic_on_every_schedule() {
    let report = check(
        "scope_panic_propagation",
        Config {
            preemption_bound: 1,
            max_schedules: 50_000,
            ..Config::default()
        },
        || {
            let pool = ThreadPool::new(2);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.scope(|s| {
                    s.spawn(|| {
                        // lint: allow(panic) reason=model test deliberately panicking a pool task
                        panic!("task boom");
                    });
                });
            }));
            let payload = caught.expect_err("the task panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task boom"));
        },
    );
    assert!(report.schedules > 1, "explored {}", report.schedules);
}

/// Protocol 3b: scope completion publishes task results. The task writes a
/// plain (vector-clock-tracked) cell; the only thing ordering the main
/// lane's read after that write is the scope protocol itself — the task's
/// Release decrement of `pending` paired with the waiter's Acquire load.
/// If that pair were downgraded, this test would report a data race.
#[test]
fn scope_completion_publishes_task_writes() {
    let report = check(
        "scope_publication",
        Config {
            preemption_bound: 1,
            max_schedules: 50_000,
            ..Config::default()
        },
        || {
            let cell = Arc::new(mixen_check::cell::RaceCell::new(0u32));
            let pool = ThreadPool::new(2);
            pool.scope(|s| {
                let cell = Arc::clone(&cell);
                s.spawn(move || cell.store(42));
            });
            assert_eq!(cell.load(), 42);
        },
    );
    assert!(report.schedules > 1, "explored {}", report.schedules);
}
