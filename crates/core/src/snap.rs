//! Atomic snapshot cell: the serving layer's wait-light publish/subscribe
//! point for immutable rank snapshots.
//!
//! The online ranking service (`mixen-serve`) keeps a resident engine
//! iterating in the background and answers queries from the last published
//! snapshot. The contract between the one ranking loop (writer) and the
//! request workers (readers) is:
//!
//! * **Atomicity** — a reader always observes a `(version, value)` pair
//!   exactly as published; never a torn mix of two publishes.
//! * **Monotonicity** — versions observed by any single reader across
//!   successive [`SnapCell::load`] calls never decrease (no
//!   stale-then-fresh-then-stale sequences).
//! * **Wait-light reads** — readers never contend with the writer's slot
//!   mutex on the fast path: the writer prepares the next snapshot in the
//!   *spare* slot while readers clone from the *live* slot, and the
//!   publication itself is a single release-store of the packed
//!   version/slot word. The only cross-party blocking is a reader still
//!   mid-`Arc`-clone in a slot the *next* publish wants to reuse — a bound
//!   of one refcount increment, not one ranking convergence.
//!
//! The protocol is small enough to model-check: every field goes through
//! the crate's `msync` facade, so `--features model-check` builds explore all
//! interleavings of `load` and `publish` under `mixen-check` (see
//! `crates/check/tests/snap_model.rs`). Release builds compile to plain
//! `std::sync` types.
//!
//! # Protocol
//!
//! State: two slots each holding an `Arc<T>` behind a mutex, plus one
//! atomic word `current` packing `(version << 1) | live_slot_index`.
//!
//! * `load`: read `current` (acquire) → lock the live slot → re-read
//!   `current`; if unchanged, clone the `Arc` and return, else unlock and
//!   retry. The re-check makes the torn case impossible: a slot can only be
//!   overwritten under its mutex, and overwrites are preceded by a
//!   `current` change (the slot must first become the spare), which the
//!   re-check observes because versions strictly increase.
//! * `publish`: serialize writers (writer mutex) → lock the spare slot and
//!   store the new `Arc` → release-store `current` with the spare as the
//!   new live slot and `version + 1`.

use std::sync::Arc;

use crate::msync::atomic::{AtomicU64, Ordering};
use crate::msync::Mutex;

/// An atomically swappable, versioned `Arc<T>` — see the module docs for
/// the protocol and its guarantees.
pub struct SnapCell<T> {
    /// Packed publication word: `(version << 1) | live_slot_index`.
    current: AtomicU64,
    /// Double buffer; `current`'s low bit names the live slot, the other
    /// slot is the writer's staging area.
    slots: [Mutex<Arc<T>>; 2],
    /// Serializes writers so the spare-slot choice cannot race.
    writer: Mutex<()>,
}

impl<T> std::fmt::Debug for SnapCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The slots stay opaque: locking them inside Debug could interleave
        // with a model execution; the version is the useful identity anyway.
        f.debug_struct("SnapCell")
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

impl<T> SnapCell<T> {
    /// A cell whose initial content is `initial` at version 0.
    pub fn new(initial: Arc<T>) -> Self {
        Self {
            current: AtomicU64::new(0),
            slots: [Mutex::new(Arc::clone(&initial)), Mutex::new(initial)],
            writer: Mutex::new(()),
        }
    }

    /// The version of the currently live snapshot. Monotonically
    /// non-decreasing; cheap enough to poll (a single atomic load), which
    /// is how request workers detect "a fresh snapshot arrived" without
    /// touching the slots.
    pub fn version(&self) -> u64 {
        self.current.load(Ordering::Acquire) >> 1
    }

    /// Returns the live snapshot and its version.
    ///
    /// Never blocks on the writer's staging work; retries only when a
    /// publish lands between the `current` read and the slot lock (at most
    /// once per concurrent publish).
    pub fn load(&self) -> (u64, Arc<T>) {
        loop {
            let cur = self.current.load(Ordering::Acquire);
            let idx = (cur & 1) as usize;
            let guard = lock_recover(&self.slots[idx]);
            // Re-check under the lock: if `current` moved, this slot may be
            // (or be about to become) the writer's spare — its content then
            // belongs to a publish newer than `cur` and returning it with
            // `cur`'s version would be a torn pair. Versions strictly
            // increase, so an unchanged word proves no publish completed
            // and the slot still holds `cur`'s value.
            if self.current.load(Ordering::Acquire) == cur {
                return (cur >> 1, Arc::clone(&*guard));
            }
        }
    }

    /// Publishes `next` as the new live snapshot; returns its version.
    ///
    /// Writers are serialized internally; readers continue to be served
    /// from the previous snapshot until the final release-store, at which
    /// point new `load`s see `next`.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        let _writer = lock_recover(&self.writer);
        let cur = self.current.load(Ordering::Acquire);
        let spare = ((cur & 1) ^ 1) as usize;
        {
            let mut guard = lock_recover(&self.slots[spare]);
            *guard = next;
        }
        let packed = ((cur >> 1) + 1) << 1 | spare as u64;
        self.current.store(packed, Ordering::Release);
        packed >> 1
    }
}

/// Locks, recovering from poisoning: a reader that panicked mid-clone
/// cannot leave the cell unusable (the content is a plain `Arc`, never
/// partially updated under the lock).
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> impl std::ops::DerefMut<Target = T> + '_ {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_and_publish_bump_versions() {
        let cell = SnapCell::new(Arc::new(10u64));
        assert_eq!(cell.version(), 0);
        let (v, val) = cell.load();
        assert_eq!((v, *val), (0, 10));
        assert_eq!(cell.publish(Arc::new(11)), 1);
        assert_eq!(cell.publish(Arc::new(12)), 2);
        let (v, val) = cell.load();
        assert_eq!((v, *val), (2, 12));
        assert_eq!(cell.version(), 2);
    }

    #[test]
    fn loads_share_the_published_allocation() {
        let snap = Arc::new(vec![1.0f32; 64]);
        let cell = SnapCell::new(Arc::clone(&snap));
        let (_, a) = cell.load();
        let (_, b) = cell.load();
        assert!(Arc::ptr_eq(&a, &snap) && Arc::ptr_eq(&b, &snap));
    }

    /// Stress the protocol with real threads: every observed pair must be
    /// consistent (payload encodes its version) and per-reader versions
    /// must never go backwards.
    #[test]
    fn concurrent_readers_see_consistent_monotonic_pairs() {
        const PUBLISHES: u64 = 400;
        let cell = Arc::new(SnapCell::new(Arc::new(0u64)));
        let writer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for v in 1..=PUBLISHES {
                    assert_eq!(cell.publish(Arc::new(v)), v);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while last < PUBLISHES {
                        let (version, value) = cell.load();
                        assert_eq!(*value, version, "torn version/payload pair");
                        assert!(version >= last, "version regressed {last} -> {version}");
                        last = last.max(version);
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.version(), PUBLISHES);
    }
}
