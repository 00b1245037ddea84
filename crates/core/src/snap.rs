//! Snapshot cell: the serving layer's publish/subscribe point for
//! immutable rank snapshots.
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
//! * **Short critical sections** — the lock is held for one `Arc` clone
//!   (`load`), one version read (`version`) or one swap (`publish`); the
//!   retired snapshot is dropped after unlocking, so no reader ever waits on
//!   a ranking step or on freeing a score vector.
//!
//! Atomicity and monotonicity follow from one `Mutex<(u64, Arc<T>)>`: the pair is only
//! ever read or written whole under the lock, and `publish` only increments
//! the version. The mutex goes through the crate's `msync` facade, so
//! `--features model-check` builds explore all interleavings of `load` and
//! `publish` under `mixen-check` (see `crates/check/tests/snap_model.rs`).

use std::sync::Arc;

use crate::msync::Mutex;

/// A swappable, versioned `Arc<T>` — see the module docs for the
/// guarantees.
pub struct SnapCell<T> {
    /// The live snapshot and its version.
    live: Mutex<(u64, Arc<T>)>,
}

impl<T> std::fmt::Debug for SnapCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The snapshot stays opaque; the version is the useful identity.
        f.debug_struct("SnapCell")
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

impl<T> SnapCell<T> {
    /// A cell whose initial content is `initial` at version 0.
    pub fn new(initial: Arc<T>) -> Self {
        Self {
            live: Mutex::new((0, initial)),
        }
    }

    /// The version of the currently live snapshot. Monotonically
    /// non-decreasing; cheap enough to poll, which is how request workers
    /// detect "a fresh snapshot arrived" without cloning it.
    pub fn version(&self) -> u64 {
        lock_recover(&self.live).0
    }

    /// Returns the live snapshot and its version.
    pub fn load(&self) -> (u64, Arc<T>) {
        let live = lock_recover(&self.live);
        (live.0, Arc::clone(&live.1))
    }

    /// Publishes `next` as the new live snapshot; returns its version.
    /// Concurrent writers serialize on the lock.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        let (version, retired) = {
            let mut live = lock_recover(&self.live);
            live.0 += 1;
            (live.0, std::mem::replace(&mut live.1, next))
        };
        drop(retired);
        version
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
