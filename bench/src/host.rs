//! Facts about the machine and toolchain a trajectory file was measured on.

use std::process::Command;

use mixen_core::Json;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Data and unified cache levels of cpu0 as `(label, size)`, e.g.
/// `("L2", "2048K")`.
fn caches() -> Vec<(String, String)> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .filter_map(|i| {
            let level = read(&format!("{base}/index{i}/level"))?;
            let kind = read(&format!("{base}/index{i}/type"))?;
            let size = read(&format!("{base}/index{i}/size"))?;
            (kind != "Instruction").then(|| (format!("L{level}"), size))
        })
        .collect()
}

pub fn facts() -> Json {
    let text = |v: Option<String>| Json::Str(v.unwrap_or_else(|| "unknown".into()));
    Json::Obj(vec![
        ("nproc".into(), Json::from_u64(nproc() as u64)),
        (
            "caches".into(),
            Json::Obj(
                caches()
                    .into_iter()
                    .map(|(level, size)| (level, Json::Str(size)))
                    .collect(),
            ),
        ),
        (
            "governor".into(),
            text(read(
                "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
            )),
        ),
        (
            "git_rev".into(),
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), text(command_line("rustc", &["-V"]))),
    ])
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Lets the calling thread run on every CPU again (threads and child
/// processes inherit their creator's CPU mask). A no-op off Linux, where
/// `mixen_pool::affinity` pins nothing either.
pub fn allow_all_cpus() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            // Linux `sched_setaffinity(2)`; `pid = 0` is the calling thread.
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // 1024 CPUs, the kernel's historical `CPU_SETSIZE`; bits of CPUs
        // that do not exist are ignored.
        let mask = [u64::MAX; 16];
        // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes that
        // the kernel only reads.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}
