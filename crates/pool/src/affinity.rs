//! Optional CPU pinning for pool lanes, without a libc crate.
//!
//! The value-stream kernels are bandwidth-bound; once a lane's working set
//! (its bin segments and the slice of `x`/`y` it owns) is resident in a
//! core's private cache, letting the OS migrate the thread to another core
//! throws that residency away. Pinning each lane to one CPU keeps the
//! per-lane streams on the core that warmed them.
//!
//! Pinning is **off by default** and never required for correctness — it is
//! a measurement/performance knob. Two ways to turn it on:
//!
//! * the `MIXEN_AFFINITY` environment variable, read lazily when the first
//!   pool worker spawns: `auto` (lane *i* → CPU *i* mod ncpus) or an
//!   explicit comma list such as `0,2,4,6` (lane *i* → list\[*i* mod len\]);
//!   anything else (including unset) leaves pinning off;
//! * [`configure`], which overrides the environment and also pins the
//!   calling thread — the caller participates in every [`crate::scope`] as
//!   lane 0, so the CLI pins itself alongside the workers it configures.
//!
//! Lane numbering: the calling thread is lane 0, background worker *i* is
//! lane *i* + 1. With `auto` on a `t`-thread pool the lanes land on CPUs
//! `0..t`, one each, matching how `--threads t` is usually sized.
//!
//! On non-Linux targets every pinning call is a no-op that reports
//! `false`/`None`; policy parsing and lane arithmetic still work so the
//! plumbing can be tested anywhere.

use std::sync::Mutex;

/// How pool lanes are pinned to CPUs. See the module docs for the lane →
/// CPU maps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum AffinityPolicy {
    /// No pinning (the default): the OS scheduler places lanes freely.
    #[default]
    Disabled,
    /// Lane *i* is pinned to CPU *i* mod ncpus.
    Auto,
    /// Lane *i* is pinned to `list[i mod len]`. An empty list disables
    /// pinning (unrepresentable via [`AffinityPolicy::parse`]).
    List(Vec<usize>),
}

impl AffinityPolicy {
    /// Parses a `MIXEN_AFFINITY` / `--affinity` spec: `off`, `auto`, or a
    /// comma-separated CPU list (`0,2,4`). Returns `None` on anything else
    /// so callers can distinguish a typo from an explicit `off`.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        match s {
            "off" | "none" | "disabled" => return Some(AffinityPolicy::Disabled),
            "auto" => return Some(AffinityPolicy::Auto),
            "" => return None,
            _ => {}
        }
        let cpus: Option<Vec<usize>> = s
            .split(',')
            .map(|part| part.trim().parse::<usize>().ok())
            .collect();
        cpus.filter(|l| !l.is_empty()).map(AffinityPolicy::List)
    }

    /// The policy requested by the `MIXEN_AFFINITY` environment variable;
    /// unset or unparseable specs fall back to [`AffinityPolicy::Disabled`]
    /// (the CLI layer validates specs loudly; the lazy env path must not
    /// panic inside a worker spawn).
    pub fn from_env() -> Self {
        std::env::var("MIXEN_AFFINITY")
            .ok()
            .and_then(|s| Self::parse(&s))
            .unwrap_or(AffinityPolicy::Disabled)
    }

    /// The CPU lane `lane` should be pinned to, if any.
    pub fn cpu_for_lane(&self, lane: usize, ncpus: usize) -> Option<usize> {
        match self {
            AffinityPolicy::Disabled => None,
            AffinityPolicy::Auto => Some(lane % ncpus.max(1)),
            AffinityPolicy::List(cpus) => cpus.get(lane % cpus.len().max(1)).copied(),
        }
    }
}

/// Explicitly configured policy; `None` means "fall back to the
/// environment". A mutex (not a `OnceLock`) so tests can reconfigure.
static CONFIGURED: Mutex<Option<AffinityPolicy>> = Mutex::new(None);

/// Installs `policy` process-wide and pins the calling thread as lane 0.
///
/// Affects workers spawned afterwards, so call it before the global pool is
/// created (the same ordering [`crate::configure_global`] requires).
/// Returns the CPU the caller was pinned to, or `None` when the policy
/// leaves lane 0 unpinned or pinning is unsupported on this target.
pub fn configure(policy: AffinityPolicy) -> Option<usize> {
    let caller_cpu = policy.cpu_for_lane(0, num_cpus());
    *CONFIGURED.lock().unwrap() = Some(policy);
    caller_cpu.filter(|&cpu| pin_current_thread(cpu))
}

/// The policy workers consult at spawn: the configured one, else the
/// environment's.
pub(crate) fn effective_policy() -> AffinityPolicy {
    CONFIGURED
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(AffinityPolicy::from_env)
}

/// Pins background worker `index` (lane `index + 1`) per the effective
/// policy. Called from `worker_main` before the first job. Failures are
/// ignored: pinning is best-effort and never affects results.
pub(crate) fn apply_to_worker(index: usize) {
    if let Some(cpu) = effective_policy().cpu_for_lane(index + 1, num_cpus()) {
        let _ = pin_current_thread(cpu);
    }
}

/// The CPU count used for `auto`'s modulo: the process's available
/// parallelism (respects cgroup/taskset limits), floored at 1.
pub fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pins the current thread to a single CPU. Returns `true` on success;
/// always `false` off Linux.
pub fn pin_current_thread(cpu: usize) -> bool {
    sys::pin_to(cpu)
}

/// The set of CPUs the current thread may run on, ascending, or `None`
/// where unsupported (non-Linux) or on syscall failure.
pub fn current_thread_cpus() -> Option<Vec<usize>> {
    sys::current_cpus()
}

#[cfg(target_os = "linux")]
mod sys {
    /// 16 × 64 = 1024 CPUs — the kernel's historical `CPU_SETSIZE`; CPUs
    /// beyond it are out of scope for this minimal mask.
    const MASK_WORDS: usize = 16;

    extern "C" {
        // Linux `sched_setaffinity(2)` / `sched_getaffinity(2)`; `pid = 0`
        // means the calling thread. `cpu_set_t` is an opaque bitmask,
        // passed here as `u64` words to avoid declaring the alias.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }

    pub(super) fn pin_to(cpu: usize) -> bool {
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1u64 << (cpu % 64);
        // SAFETY: `sched_setaffinity` is the libc symbol every Linux
        // process links; the mask pointer and its byte size describe a
        // live, correctly-sized local buffer, and `pid = 0` targets only
        // the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }

    pub(super) fn current_cpus() -> Option<Vec<usize>> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: same symbol/size contract as above; the kernel writes at
        // most `cpusetsize` bytes into the buffer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let mut cpus = Vec::new();
        for (w, &word) in mask.iter().enumerate() {
            for b in 0..64 {
                if word & (1u64 << b) != 0 {
                    cpus.push(w * 64 + b);
                }
            }
        }
        Some(cpus)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) fn pin_to(_cpu: usize) -> bool {
        false
    }

    pub(super) fn current_cpus() -> Option<Vec<usize>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_vocabulary() {
        assert_eq!(AffinityPolicy::parse("off"), Some(AffinityPolicy::Disabled));
        assert_eq!(
            AffinityPolicy::parse("none"),
            Some(AffinityPolicy::Disabled)
        );
        assert_eq!(AffinityPolicy::parse("auto"), Some(AffinityPolicy::Auto));
        assert_eq!(
            AffinityPolicy::parse(" 0, 2,4 "),
            Some(AffinityPolicy::List(vec![0, 2, 4]))
        );
        assert_eq!(AffinityPolicy::parse(""), None);
        assert_eq!(AffinityPolicy::parse("fast"), None);
        assert_eq!(AffinityPolicy::parse("0,x"), None);
    }

    #[test]
    fn lane_to_cpu_maps() {
        assert_eq!(AffinityPolicy::Disabled.cpu_for_lane(3, 8), None);
        assert_eq!(AffinityPolicy::Auto.cpu_for_lane(3, 8), Some(3));
        assert_eq!(AffinityPolicy::Auto.cpu_for_lane(9, 8), Some(1));
        let list = AffinityPolicy::List(vec![4, 6]);
        assert_eq!(list.cpu_for_lane(0, 8), Some(4));
        assert_eq!(list.cpu_for_lane(1, 8), Some(6));
        assert_eq!(list.cpu_for_lane(2, 8), Some(4));
    }

    /// Linux-only smoke: pinning a scratch thread really narrows its CPU
    /// set (per-thread affinity dies with the thread, so nothing to undo).
    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_narrows_the_affinity_mask() {
        std::thread::spawn(|| {
            let before = current_thread_cpus().expect("getaffinity");
            assert!(!before.is_empty());
            let target = before[0];
            assert!(pin_current_thread(target));
            assert_eq!(current_thread_cpus().unwrap(), vec![target]);
        })
        .join()
        .unwrap();
    }
}
