//! Model tests for the engine's scratch cell (`mixen_core::engine`): run
//! state is taken out of the cell on entry to a run and put back on exit,
//! the lock held for the move alone. Under every explored interleaving of
//! two callers on one cell,
//!
//! * the same state is never in two hands (each state carries a `held`
//!   flag that a second holder would find set);
//! * a caller that finds the cell empty allocates state of its own — it
//!   never waits for the other to finish;
//! * nothing leaks: states are counted on creation and on drop, and
//!   whatever the order of the `put`s exactly one state survives, parked;
//! * a caller that panics between `take` and `put` drops its state with its
//!   frame and leaves the cell unpoisoned: the states alive afterwards are
//!   the ones parked, and the next caller takes and puts as before.
//!
//! The cell's mutex routes through `mixen-core`'s `msync` facade, so the
//! `model-check` build explores real schedules of the real `take`/`put`.

use std::sync::Arc;

use mixen_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use mixen_check::{check, thread, Config};
use mixen_core::mc::ScratchProbe;

/// Stand-in for an engine's run state: counted while alive, flagged while a
/// caller works on it.
struct State {
    live: Arc<AtomicUsize>,
    held: AtomicBool,
}

impl State {
    fn new(live: &Arc<AtomicUsize>) -> Box<Self> {
        live.fetch_add(1, Ordering::AcqRel);
        Box::new(Self {
            live: Arc::clone(live),
            held: AtomicBool::new(false),
        })
    }
}

impl Drop for State {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One run's use of the cell: take or allocate, work, put back. Returns
/// whether this caller had to allocate.
fn run_once(cell: &ScratchProbe, live: &Arc<AtomicUsize>) -> bool {
    let parked = cell.take::<State>();
    let allocated = parked.is_none();
    let state = parked.unwrap_or_else(|| State::new(live));
    assert!(
        !state.held.swap(true, Ordering::AcqRel),
        "one state in two hands"
    );
    // (The flag's accesses are schedule points: the other caller gets to
    // run, and to look into the cell, while this one holds its state.)
    state.held.store(false, Ordering::Release);
    cell.put(state);
    allocated
}

fn config() -> Config {
    Config {
        preemption_bound: 2,
        max_schedules: 200_000,
        ..Config::default()
    }
}

#[test]
fn two_callers_never_share_a_state_and_the_loser_allocates() {
    let report = check("scratch_take_vs_take", config(), || {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ScratchProbe::default());
        // A warm engine: one state parked by an earlier run.
        cell.put(State::new(&live));
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let (cell, live) = (Arc::clone(&cell), Arc::clone(&live));
                thread::spawn(move || run_once(&cell, &live))
            })
            .collect();
        let allocated: Vec<bool> = callers.into_iter().map(|c| c.join().unwrap()).collect();
        // Either the runs did not overlap and both used the parked state, or
        // they did and exactly one found the cell empty.
        assert!(allocated.iter().filter(|&&a| a).count() <= 1);
        // Whoever put last left its state; the one it replaced was freed.
        assert_eq!(live.load(Ordering::Acquire), 1);
        assert!(cell.take::<State>().is_some());
        assert_eq!(live.load(Ordering::Acquire), 0);
    });
    assert!(report.schedules > 1, "explored {}", report.schedules);
}

#[test]
fn a_panicking_caller_frees_its_state_and_leaves_the_cell_usable() {
    let report = check("scratch_panic_vs_take", config(), || {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ScratchProbe::default());
        cell.put(State::new(&live));
        let doomed = {
            let (cell, live) = (Arc::clone(&cell), Arc::clone(&live));
            thread::spawn(move || {
                let blown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _state = cell.take::<State>().unwrap_or_else(|| State::new(&live));
                    // `apply` blows up: the frame unwinds past the `put`.
                    panic!("apply panicked");
                }));
                assert!(blown.is_err());
            })
        };
        let steady = {
            let (cell, live) = (Arc::clone(&cell), Arc::clone(&live));
            thread::spawn(move || run_once(&cell, &live))
        };
        doomed.join().unwrap();
        steady.join().unwrap();
        // The doomed caller's state is gone whichever one it was — the one
        // parked at the start, its own, or the one the steady caller had
        // already put back — so what is alive is what is parked.
        let parked = cell.take::<State>();
        assert_eq!(live.load(Ordering::Acquire), usize::from(parked.is_some()));
        drop(parked);
        // And the cell still takes and gives.
        assert!(run_once(&cell, &live));
        assert!(!run_once(&cell, &live));
        assert_eq!(live.load(Ordering::Acquire), 1);
    });
    assert!(report.schedules > 1, "explored {}", report.schedules);
}

#[test]
fn a_caller_of_another_type_frees_what_it_cannot_use() {
    struct Other;
    let report = check("scratch_other_type", config(), || {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ScratchProbe::default());
        cell.put(State::new(&live));
        let other = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                // Finds nothing of its type — whether the cell held a `State`
                // or was empty — and parks its own.
                assert!(cell.take::<Other>().is_none());
                cell.put(Box::new(Other));
            })
        };
        let same = {
            let (cell, live) = (Arc::clone(&cell), Arc::clone(&live));
            thread::spawn(move || run_once(&cell, &live))
        };
        other.join().unwrap();
        same.join().unwrap();
        // At most the one `State` parked last is alive; one that `Other`'s
        // caller took out or replaced was freed, not lost.
        let parked = cell.take::<State>();
        assert_eq!(live.load(Ordering::Acquire), usize::from(parked.is_some()));
    });
    assert!(report.schedules > 1, "explored {}", report.schedules);
}
