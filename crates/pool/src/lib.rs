//! `mixen-pool` — a dependency-free fixed thread pool with one shared FIFO
//! queue, built on `std::thread`, one mutex, condvars and atomics only.
//!
//! This crate is the execution substrate for the whole Mixen workspace and
//! the only way it runs a data-parallel pass: the Scatter–Cache–Gather–Apply
//! engine, the graph builders and the baselines call the helpers below
//! directly, so they share one pool, one `--threads` / `MIXEN_THREADS` knob
//! and one split rule.
//!
//! # Data-parallel passes
//!
//! [`split`] alone decides how a length is cut into tasks: one part on a
//! single lane, else `min(4 × lanes, len)` contiguous parts. [`par_parts`]
//! (ordered per-part map), [`par_parts_mut`] (disjoint sub-slices) and
//! [`par_chunks_mut`] (fixed-size chunks) run one task per part, items
//! ascending inside a part; callers combine per-part results in part order,
//! so every result — float sums included — is a pure function of
//! `(input, lanes)`.
//!
//! # Execution model
//!
//! A pool with `threads = t` means *total* parallelism `t`: it spawns `t - 1`
//! background workers and the calling thread participates as the `t`-th lane
//! while it blocks in [`scope`]. `threads = 1` spawns no workers at all and
//! every task runs inline on the caller, in spawn order — this is the
//! bit-for-bit sequential fallback the engine's determinism contract relies
//! on (float sums are performed in exactly the single-threaded order).
//!
//! Every task goes into one FIFO queue behind one mutex; idle workers sleep
//! on a condvar paired with that same mutex. Handing parts out of one shared
//! queue is the OpenMP dynamic schedule the paper runs each phase with: a
//! lane that finishes early takes the next part. Callers waiting on a
//! [`Scope`] *help*: they pop pending tasks instead of blocking, so a pool
//! can never deadlock on its own scope, nested scopes included.
//!
//! # Which pool runs my task?
//!
//! Free functions ([`scope`], [`par_parts`], …) resolve the *ambient* pool
//! in this order:
//!
//! 1. if the current thread is a pool worker, that worker's own pool;
//! 2. the innermost [`ThreadPool::install`] / [`with_threads`] override;
//! 3. the process-global pool, lazily created from the `MIXEN_THREADS`
//!    environment variable (or [`std::thread::available_parallelism`] when
//!    unset) on first use; [`configure_global`] pins it explicitly first.
//!
//! # Memory ordering
//!
//! Task handoff is synchronized by the queue mutex. Scope completion uses a
//! `pending` counter: each task's final decrement is `Release` and the
//! waiter's read of `pending == 0` is `Acquire`, so every write performed by
//! a task *happens-before* the scope returns. The [`PoolStats`] counters are
//! plain `Relaxed` statistics — they are exact once a scope has completed
//! (the Release/Acquire pair above orders them too), and merely monotonic
//! while tasks are still in flight.
//!
//! # Example
//!
//! ```
//! // Sum a range in ordered parts, then check against the sequential sum.
//! let sums = mixen_pool::par_parts(10_000, |part| part.map(|i| i as u64).sum::<u64>());
//! assert_eq!(sums.into_iter().sum::<u64>(), (0..10_000u64).sum::<u64>());
//! ```

#![warn(missing_docs)]

pub mod affinity;

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{thread, Condvar, Mutex};

/// Synchronization facade: with the `model-check` feature every primitive
/// the pool's protocol relies on (the queue and scope mutexes, the wakeup
/// and scope condvars, the pending counter, worker spawn/join) routes
/// through the `mixen-check` instrumented types, so model tests can
/// exhaustively explore the pool's schedules. Without the feature these are
/// plain `std` re-exports and the pool compiles exactly as before.
///
/// Even with the feature compiled in, the instrumented types behave as
/// `std` unless the calling thread is inside a `mixen_check::explore`
/// execution, so enabling `model-check` does not perturb ordinary tests.
#[cfg(feature = "model-check")]
pub(crate) mod sync {
    pub(crate) use mixen_check::sync::atomic;
    pub(crate) use mixen_check::sync::{Condvar, Mutex};
    pub(crate) use mixen_check::thread;
}

/// Plain `std` synchronization (the `model-check` feature is off).
#[cfg(not(feature = "model-check"))]
pub(crate) mod sync {
    pub(crate) use std::sync::atomic;
    pub(crate) use std::sync::{Condvar, Mutex};
    pub(crate) use std::thread;
}

/// A queued unit of work. Scopes erase the `'scope` lifetime before boxing
/// (see [`Scope::spawn`]), which is sound because a scope never returns until
/// its pending count reaches zero.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long a scope waiter sleeps when all of its tasks are already running
/// on other lanes and there is nothing left to help with.
const HELP_TIMEOUT: Duration = Duration::from_millis(1);

// ---------------------------------------------------------------------------
// Pool core
// ---------------------------------------------------------------------------

/// What the queue mutex guards: the pending jobs and the shutdown flag, so a
/// worker reads both under the lock it parks on.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolCore {
    /// Total parallelism including the caller lane; `workers + 1`.
    threads: usize,
    queue: Mutex<Queue>,
    /// Signalled on every push (under `queue`) and on shutdown.
    available: Condvar,
    tasks_executed: AtomicU64,
}

impl PoolCore {
    fn new(threads: usize) -> Arc<PoolCore> {
        Arc::new(PoolCore {
            threads,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            tasks_executed: AtomicU64::new(0),
        })
    }

    fn workers(&self) -> usize {
        self.threads - 1
    }

    /// Spawns the background workers for an already-constructed core.
    fn start_workers(core: &Arc<PoolCore>) -> Vec<thread::JoinHandle<()>> {
        (0..core.workers())
            .map(|index| {
                let core = Arc::clone(core);
                thread::Builder::new()
                    .name(format!("mixen-pool-{index}"))
                    .spawn(move || worker_main(core, index))
                    .expect("mixen-pool: failed to spawn worker thread")
            })
            .collect()
    }

    /// Enqueues a job and wakes one parked worker. The notify happens under
    /// the queue lock a worker checks the queue under before it waits, so a
    /// push can never fall between that check and the wait.
    fn push(&self, job: Job) {
        let mut queue = self.queue.lock().unwrap();
        queue.jobs.push_back(job);
        self.available.notify_one();
    }

    fn pop(&self) -> Option<Job> {
        self.queue.lock().unwrap().jobs.pop_front()
    }

    fn run(&self, job: Job) {
        // ordering: statistics counter; readers only need the
        // scope-completion Release/Acquire pair for exactness.
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
        // Jobs never unwind: every producer (Scope::spawn) wraps the user
        // closure in catch_unwind and stores the payload in the scope.
        job();
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            workers: self.workers(),
            // ordering: monotonic statistics read; documented as exact only
            // after a scope completes (whose Release/Acquire pair orders it).
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            steals: 0,
        }
    }
}

fn worker_main(core: Arc<PoolCore>, index: usize) {
    // Best-effort CPU pinning (lane index + 1; the caller is lane 0).
    // Off by default; see the `affinity` module docs.
    affinity::apply_to_worker(index);
    WORKER.with(|w| *w.borrow_mut() = Some(Arc::clone(&core)));
    let mut queue = core.queue.lock().unwrap();
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            core.run(job);
            queue = core.queue.lock().unwrap();
        } else if queue.shutdown {
            return;
        } else {
            queue = core.available.wait(queue).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Ambient-pool resolution
// ---------------------------------------------------------------------------

thread_local! {
    /// Set once at worker startup; identifies the worker's pool.
    static WORKER: RefCell<Option<Arc<PoolCore>>> = const { RefCell::new(None) };
    /// Stack of `ThreadPool::install` overrides on this thread.
    static OVERRIDE: RefCell<Vec<Arc<PoolCore>>> = const { RefCell::new(Vec::new()) };
}

static GLOBAL: OnceLock<Arc<PoolCore>> = OnceLock::new();
static GLOBAL_HANDLES: OnceLock<()> = OnceLock::new();

fn parse_threads_env(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

fn default_threads() -> usize {
    parse_threads_env(std::env::var("MIXEN_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

fn global_core() -> &'static Arc<PoolCore> {
    let core = GLOBAL.get_or_init(|| PoolCore::new(default_threads()));
    // Workers for the global pool are started exactly once, detached: the
    // global pool lives for the whole process and is never shut down.
    GLOBAL_HANDLES.get_or_init(|| {
        let _handles = PoolCore::start_workers(core);
    });
    core
}

fn current_core() -> Arc<PoolCore> {
    if let Some(core) = WORKER.with(|w| w.borrow().clone()) {
        return core;
    }
    if let Some(core) = OVERRIDE.with(|o| o.borrow().last().cloned()) {
        return core;
    }
    Arc::clone(global_core())
}

/// Error returned by [`configure_global`] when the global pool already
/// exists with a different thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfigError {
    /// The thread count the global pool was already initialized with.
    pub current: usize,
    /// The thread count the rejected call asked for.
    pub requested: usize,
}

impl fmt::Display for PoolConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "global pool already initialized with {} threads (requested {})",
            self.current, self.requested
        )
    }
}

impl std::error::Error for PoolConfigError {}

/// Pins the process-global pool to `threads` total lanes.
///
/// Must run before anything touches the global pool (the pool is created
/// lazily on first use and cannot be resized afterwards). Calling again with
/// the same value is a no-op; a different value returns [`PoolConfigError`].
/// `threads = 0` is treated as `1`.
pub fn configure_global(threads: usize) -> Result<(), PoolConfigError> {
    let requested = threads.max(1);
    let mut created = false;
    let core = GLOBAL.get_or_init(|| {
        created = true;
        PoolCore::new(requested)
    });
    if !created && core.threads != requested {
        return Err(PoolConfigError {
            current: core.threads,
            requested,
        });
    }
    if created {
        GLOBAL_HANDLES.get_or_init(|| {
            let _handles = PoolCore::start_workers(core);
        });
    }
    Ok(())
}

/// Total parallelism of the ambient pool (workers plus the caller lane).
pub fn current_num_threads() -> usize {
    current_core().threads
}

/// Runs `f` with a temporary pool of `threads` lanes installed as the
/// ambient pool on this thread, then tears the pool down.
///
/// This is how tests exercise several thread counts inside one process: the
/// process-global pool cannot be reconfigured, but overrides nest freely.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPool::new(threads).install(f)
}

/// Snapshot of a pool's lifetime counters. See [`stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total parallelism (background workers + the caller lane).
    pub threads: usize,
    /// Number of background worker threads (`threads - 1`).
    pub workers: usize,
    /// Tasks executed since the pool started (monotonic).
    pub tasks_executed: u64,
    /// Always 0: every lane takes tasks from the one shared queue, so
    /// nothing is stolen. Kept while the benchmark still reports
    /// `pool.steals_per_iter`.
    pub steals: u64,
}

/// Counters of the ambient pool. Exact for all completed scopes; merely
/// monotonic while tasks are in flight (the counters are `Relaxed`).
pub fn stats() -> PoolStats {
    current_core().stats()
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

/// A fixed-size pool of worker threads sharing one FIFO task queue.
///
/// Dropping the pool signals shutdown and joins all workers. The pool cannot
/// be cloned; share work through [`ThreadPool::install`] or the free
/// functions on the ambient pool instead.
pub struct ThreadPool {
    core: Arc<PoolCore>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `threads` total lanes: `threads - 1` background
    /// workers plus the calling thread while it waits inside [`scope`].
    /// `threads = 0` is treated as `1` (no workers; every task runs inline
    /// on the caller in spawn order).
    ///
    /// [`scope`]: ThreadPool::scope
    pub fn new(threads: usize) -> ThreadPool {
        let core = PoolCore::new(threads.max(1));
        let handles = PoolCore::start_workers(&core);
        ThreadPool { core, handles }
    }

    /// Total parallelism of this pool (workers + caller lane).
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// Number of background worker threads (`threads() - 1`).
    pub fn workers(&self) -> usize {
        self.core.workers()
    }

    /// Lifetime counters for this pool. See [`PoolStats`].
    pub fn stats(&self) -> PoolStats {
        self.core.stats()
    }

    /// Runs `op` with a [`Scope`] that can spawn tasks borrowing from the
    /// enclosing stack frame, and blocks (helping to run pending tasks)
    /// until every spawned task has finished.
    ///
    /// If `op` or any spawned task panics, the panic is re-raised here after
    /// all tasks have completed — borrowed data is never freed while a task
    /// can still reach it.
    pub fn scope<'scope, R>(&self, op: impl FnOnce(&Scope<'scope>) -> R) -> R {
        scope_on(&self.core, op)
    }

    /// Runs `f` with this pool installed as the ambient pool for the
    /// current thread (nestable; restored on return or panic).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct PopOnDrop;
        impl Drop for PopOnDrop {
            fn drop(&mut self) {
                OVERRIDE.with(|o| {
                    o.borrow_mut().pop();
                });
            }
        }
        OVERRIDE.with(|o| o.borrow_mut().push(Arc::clone(&self.core)));
        let _guard = PopOnDrop;
        f()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.core.queue.lock().unwrap().shutdown = true;
        self.core.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.core.threads)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Scope
// ---------------------------------------------------------------------------

struct ScopeState {
    pending: AtomicUsize,
    lock: Mutex<()>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// Spawns tasks that may borrow from the stack frame enclosing the
/// [`scope`] / [`ThreadPool::scope`] call. See those functions.
pub struct Scope<'scope> {
    core: Arc<PoolCore>,
    state: Arc<ScopeState>,
    /// Makes `'scope` invariant so it cannot be shortened to allow escaping
    /// borrows.
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Queues `f` to run on the pool. On a single-lane pool the task runs
    /// immediately, inline, preserving exact sequential order and panic
    /// behaviour.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if self.core.threads == 1 {
            // Single-lane pool: run inline. A panic unwinds straight through
            // the scope body, exactly like plain sequential code.
            // ordering: statistics counter, see PoolCore::run.
            self.core.tasks_executed.fetch_add(1, Ordering::Relaxed);
            f();
            return;
        }
        // ordering: (audited down from SeqCst) the increment needs no
        // happens-before edge of its own. It is ordered before this task's
        // own decrement by same-location modification order, and every
        // other observer is a waiter that can only see `pending == 0` after
        // *all* decrements — each of which is Release and pairs with the
        // waiter's Acquire load. The spawner itself keeps the count nonzero
        // until the final decrement, so a waiter can never miss this task.
        self.state.pending.fetch_add(1, Ordering::Relaxed);
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                // Keep the first panic; later ones are duplicates of the
                // same logical failure as far as the scope is concerned.
                slot.get_or_insert(payload);
            }
            if state.pending.fetch_sub(1, Ordering::Release) == 1 {
                let _sync = state.lock.lock().unwrap();
                state.done.notify_all();
            }
        });
        // SAFETY: the job's `'scope` borrows stay valid until the scope call
        // returns, and `scope_on` does not return (even on panic) until
        // `pending` has dropped to zero — i.e. until this job has run to
        // completion. Erasing the lifetime to `'static` therefore never lets
        // the job outlive the data it borrows.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        self.core.push(job);
    }
}

impl fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scope")
            // ordering: best-effort diagnostic snapshot only.
            .field("pending", &self.state.pending.load(Ordering::Relaxed))
            .finish()
    }
}

fn scope_on<'scope, R>(core: &Arc<PoolCore>, op: impl FnOnce(&Scope<'scope>) -> R) -> R {
    let scope = Scope {
        core: Arc::clone(core),
        state: Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }),
        _marker: PhantomData,
    };
    // Catch a panic in the scope body itself so already-spawned tasks are
    // still waited for before unwinding frees their borrowed data.
    let body = catch_unwind(AssertUnwindSafe(|| op(&scope)));
    wait_scope(core, &scope.state);
    if let Some(payload) = scope.state.panic.lock().unwrap().take() {
        resume_unwind(payload);
    }
    match body {
        Ok(result) => result,
        Err(payload) => resume_unwind(payload),
    }
}

/// Blocks until the scope's pending count reaches zero, running any pool
/// task it can find in the meantime (the caller "helps" as an extra lane).
fn wait_scope(core: &PoolCore, state: &ScopeState) {
    while state.pending.load(Ordering::Acquire) != 0 {
        if let Some(job) = core.pop() {
            core.run(job);
            continue;
        }
        // Nothing to help with: our remaining tasks are running on other
        // lanes. Sleep until the last decrement notifies us. The re-check
        // under the lock closes the check-then-wait race with the task-side
        // lock/notify sequence.
        let guard = state.lock.lock().unwrap();
        if state.pending.load(Ordering::Acquire) == 0 {
            return;
        }
        let _ = state.done.wait_timeout(guard, HELP_TIMEOUT).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Free functions on the ambient pool
// ---------------------------------------------------------------------------

/// [`ThreadPool::scope`] on the ambient pool.
///
/// ```
/// let mut histogram = [0usize; 4];
/// let (a, b) = histogram.split_at_mut(2);
/// mixen_pool::scope(|s| {
///     s.spawn(|| a[0] = 1);
///     s.spawn(|| b[1] = 2);
/// });
/// assert_eq!(histogram, [1, 0, 0, 2]);
/// ```
pub fn scope<'scope, R>(op: impl FnOnce(&Scope<'scope>) -> R) -> R {
    scope_on(&current_core(), op)
}

/// Calls `f(part_index, chunk)` for consecutive `chunk_size`-sized disjoint
/// mutable chunks of `items` (last chunk may be shorter), in parallel on the
/// ambient pool.
///
/// An empty slice spawns no tasks. Panics if `chunk_size == 0`.
pub fn par_chunks_mut<T, F>(items: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        chunk_size > 0,
        "par_chunks_mut: chunk_size must be non-zero"
    );
    scope(|s| {
        for (part, chunk) in items.chunks_mut(chunk_size).enumerate() {
            let f = &f;
            s.spawn(move || f(part, chunk));
        }
    });
}

/// Contiguous parts cut per pool lane, so that lanes taking parts from the
/// shared queue can even out parts of unequal cost.
const PARTS_PER_LANE: usize = 4;

/// The split rule as a pure function of `(len, lanes)`; see [`split`].
fn split_on(len: usize, lanes: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    let parts = if lanes <= 1 {
        1
    } else {
        (lanes * PARTS_PER_LANE).min(len.max(1))
    };
    (0..parts).map(move |p| len * p / parts..len * (p + 1) / parts)
}

/// The split rule: how every data-parallel pass in the workspace cuts
/// `0..len` into ordered contiguous parts on the ambient pool. A single lane
/// gets one part (the sequential fallback); otherwise `min(4 × lanes, len)`
/// parts with boundaries `len · p / parts`, at least one even when `len` is
/// zero. The parts depend on `(len, lanes)` only, which is what makes a
/// part-ordered float reduction reproducible at a fixed lane count.
pub fn split(len: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    split_on(len, current_num_threads())
}

/// Ordered per-part map: calls `f(part)` for every [`split`] part of
/// `0..len`, one task each, and returns the results in part order. Collect,
/// filter, flat-map, sum and fold are `f` building one value per part plus an
/// ordered combine on the caller. A lone part runs inline on the caller
/// without touching the pool.
pub fn par_parts<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let parts = split(len);
    if parts.len() == 1 {
        return parts.map(f).collect();
    }
    let mut slots: Vec<Option<R>> = (0..parts.len()).map(|_| None).collect();
    scope(|s| {
        for (slot, part) in slots.iter_mut().zip(parts) {
            let f = &f;
            s.spawn(move || *slot = Some(f(part)));
        }
    });
    // The scope returned normally, so every task filled its slot.
    slots.into_iter().flatten().collect()
}

/// Mutable-slice variant of [`par_parts`]: cuts `items` by the [`split`] rule
/// and calls `f(offset, part)` on each disjoint sub-slice, `offset` being the
/// index of the part's first element in `items`.
pub fn par_parts_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let parts = split(items.len());
    if parts.len() == 1 {
        return f(0, items);
    }
    scope(|s| {
        let mut rest = items;
        for part in parts {
            let (head, tail) = rest.split_at_mut(part.len());
            rest = tail;
            let f = &f;
            s.spawn(move || f(part.start, head));
        }
    });
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    fn fib_scope(pool: &ThreadPool, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (mut a, mut b) = (0, 0);
        pool.scope(|s| {
            s.spawn(|| a = fib_scope(pool, n - 1));
            s.spawn(|| b = fib_scope(pool, n - 2));
        });
        a + b
    }

    #[test]
    fn nested_scopes_compute_fib() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            assert_eq!(fib_scope(&pool, 15), 610, "threads={threads}");
        }
    }

    /// One task per lane: the first to start on a worker opens a nested
    /// scope only once every other lane (the caller included) is spinning
    /// in a task of the outer scope. No lane but the nested scope's own
    /// waiter is free, so the nested jobs run only because it helps.
    #[test]
    fn a_nested_scope_is_drained_by_its_own_waiter_when_every_other_lane_is_busy() {
        for threads in [2, 3, 4] {
            let pool = ThreadPool::new(threads);
            let (nester, nested_done) = (AtomicBool::new(false), AtomicBool::new(false));
            let (spinning, ran) = (AtomicUsize::new(0), AtomicUsize::new(0));
            pool.scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        let on_worker = WORKER.with(|w| w.borrow().is_some());
                        if on_worker && !nester.swap(true, Ordering::AcqRel) {
                            while spinning.load(Ordering::Acquire) < threads - 1 {
                                std::thread::yield_now();
                            }
                            pool.scope(|inner| {
                                for _ in 0..8 {
                                    inner.spawn(|| {
                                        ran.fetch_add(1, Ordering::Relaxed);
                                    });
                                }
                            });
                            nested_done.store(true, Ordering::Release);
                        } else {
                            spinning.fetch_add(1, Ordering::AcqRel);
                            while !nested_done.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                        }
                    });
                }
            });
            assert_eq!(ran.load(Ordering::Relaxed), 8, "threads={threads}");
        }
    }

    #[test]
    fn scope_tasks_mutate_borrowed_slice() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 64];
        pool.scope(|s| {
            for (i, slot) in data.iter_mut().enumerate() {
                s.spawn(move || *slot = i * i);
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * i));
    }

    #[test]
    fn panic_in_scope_task_propagates() {
        let pool = ThreadPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task boom"));
            });
        }));
        let payload = caught.expect_err("scope should propagate the task panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task boom");
    }

    #[test]
    fn scope_waits_for_tasks_even_when_body_panics() {
        let pool = ThreadPool::new(2);
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        std::thread::sleep(Duration::from_millis(2));
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("body boom");
            });
        }));
        assert!(caught.is_err());
        // All spawned tasks must have completed before the panic resumed.
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn par_chunks_handles_empty_input() {
        let calls = AtomicUsize::new(0);
        let mut empty_mut: [u8; 0] = [];
        par_chunks_mut(&mut empty_mut, 16, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be non-zero")]
    fn par_chunks_rejects_zero_chunk_size() {
        par_chunks_mut(&mut [1, 2, 3], 0, |_, _| {});
    }

    #[test]
    fn par_chunks_mut_covers_disjoint_chunks() {
        with_threads(4, || {
            let mut data = vec![0u32; 1000];
            par_chunks_mut(&mut data, 64, |part, chunk| {
                for v in chunk.iter_mut() {
                    *v = part as u32 + 1;
                }
            });
            assert!(data.iter().all(|&v| v >= 1));
            assert_eq!(data[0], 1);
            assert_eq!(data[999], 1000 / 64 + 1);
        });
    }

    #[test]
    fn split_is_a_pure_ordered_cover_of_the_length() {
        for (lanes, full) in [(1usize, 1usize), (2, 8), (3, 12), (8, 32)] {
            for len in [0, 1, full - 1, full, full + 1, 100_003] {
                let cut: Vec<_> = split_on(len, lanes).collect();
                assert_eq!(cut, split_on(len, lanes).collect::<Vec<_>>());
                assert_eq!(cut.len(), full.clamp(1, len.max(1)), "{len} on {lanes}");
                assert_eq!((cut[0].start, cut[cut.len() - 1].end), (0, len));
                assert!(cut.windows(2).all(|w| w[0].end == w[1].start));
                assert!(cut.iter().all(|part| part.start <= part.end));
            }
        }
        with_threads(3, || assert_eq!(split(100).len(), 12));
    }

    #[test]
    fn par_parts_orders_results_by_part_and_runs_one_task_per_part() {
        let pool = ThreadPool::new(4);
        let last_done = AtomicBool::new(false);
        let got = pool.install(|| {
            par_parts(1000, |part| {
                if part.start == 0 {
                    // The first part finishes only after the last one has.
                    while !last_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                } else if part.end == 1000 {
                    last_done.store(true, Ordering::Release);
                }
                part
            })
        });
        assert_eq!(got, split_on(1000, 4).collect::<Vec<_>>());
        assert_eq!(pool.stats().tasks_executed, 16);
        let single = ThreadPool::new(1);
        let lens = single.install(|| par_parts(1000, |part| part.len()));
        assert_eq!(lens, [1000]);
        assert_eq!(single.stats().tasks_executed, 0, "one lane spawns nothing");
    }

    #[test]
    fn par_parts_collect_filter_and_flat_map_keep_source_order() {
        let run = || {
            let kept: Vec<usize> = par_parts(4096, |part| {
                let kept = part.filter(|i| i % 5 != 0).map(|i| i * 3);
                kept.collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            let flat: Vec<usize> = par_parts(1000, |part| {
                let inner = part.flat_map(|i| (0..i % 3).map(move |k| i * 10 + k));
                inner.collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            (kept, flat)
        };
        let (kept, flat) = with_threads(4, run);
        assert_eq!((kept.clone(), flat.clone()), with_threads(1, run));
        let want: Vec<usize> = (0..4096).filter(|i| i % 5 != 0).map(|i| i * 3).collect();
        assert_eq!(kept, want);
        let want: Vec<usize> = (0..1000)
            .flat_map(|i| (0..i % 3).map(move |k| i * 10 + k))
            .collect();
        assert_eq!(flat, want);
    }

    #[test]
    fn par_parts_folds_combine_to_the_sequential_answer() {
        with_threads(4, || {
            let values: Vec<usize> = (0..1000).map(|i| i % 7).collect();
            let mut hist = [0usize; 7];
            for part in par_parts(values.len(), |part| {
                let mut hist = [0usize; 7];
                values[part].iter().for_each(|&v| hist[v] += 1);
                hist
            }) {
                hist.iter_mut().zip(part).for_each(|(h, p)| *h += p);
            }
            assert_eq!(hist, [143, 143, 143, 143, 143, 143, 142]);
            let total: u64 = par_parts(100_000, |part| part.map(|i| i as u64).sum::<u64>())
                .into_iter()
                .sum();
            assert_eq!(total, 100_000 * 99_999 / 2);
            let evens: usize = par_parts(100_000, |part| part.filter(|i| i % 2 == 0).count())
                .into_iter()
                .sum();
            assert_eq!(evens, 50_000);
            let max = par_parts(45, |part| part.map(|i| i + 5).max());
            assert_eq!(max.into_iter().flatten().max(), Some(49));
            assert_eq!(par_parts(0, |part| part.max()), [None]);
        });
    }

    #[test]
    fn par_parts_mut_hands_each_part_its_global_offset() {
        with_threads(3, || {
            let src: Vec<u32> = (100..1100).collect();
            let mut dst = vec![0u32; 1000];
            par_parts_mut(&mut dst, |first, part| {
                for ((i, d), &s) in (first..).zip(part.iter_mut()).zip(&src[first..]) {
                    *d = s * 2 + u32::from(s != 100 + i as u32);
                }
            });
            assert!(dst.iter().zip(&src).all(|(&d, &s)| d == 2 * s));
            par_parts_mut(&mut [0u8; 0], |_, part| assert!(part.is_empty()));
        });
    }

    #[test]
    fn with_threads_overrides_nest_and_restore() {
        with_threads(2, || {
            assert_eq!(current_num_threads(), 2);
            with_threads(5, || assert_eq!(current_num_threads(), 5));
            assert_eq!(current_num_threads(), 2);
        });
    }

    #[test]
    fn single_lane_pool_runs_tasks_inline_in_spawn_order() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.workers(), 0);
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..10 {
                let order = &order;
                s.spawn(move || order.lock().unwrap().push(i));
            }
        });
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stats_count_executed_tasks() {
        let pool = ThreadPool::new(3);
        let before = pool.stats();
        assert_eq!(before.threads, 3);
        assert_eq!(before.workers, 2);
        pool.scope(|s| {
            for _ in 0..20 {
                s.spawn(|| {});
            }
        });
        let after = pool.stats();
        assert_eq!(after.tasks_executed - before.tasks_executed, 20);
    }

    #[test]
    fn parse_threads_env_accepts_positive_integers_only() {
        assert_eq!(parse_threads_env(Some("4")), Some(4));
        assert_eq!(parse_threads_env(Some(" 8 ")), Some(8));
        assert_eq!(parse_threads_env(Some("0")), None);
        assert_eq!(parse_threads_env(Some("-2")), None);
        assert_eq!(parse_threads_env(Some("many")), None);
        assert_eq!(parse_threads_env(None), None);
    }
}
