//! Percentiles, process probes and the host/build description.

use std::path::Path;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time (user + system, every thread including exited ones) consumed
/// so far by process `pid`, in nanoseconds.
///
/// Reads the kernel's per-process CPU clock (`CPUCLOCK_SCHED` of `pid`, the
/// clock `clock_getcpuclockid(3)` returns): the same quantity as the
/// `utime + stime` fields of `/proc/<pid>/stat`, at nanosecond instead of
/// clock-tick resolution. Falls back to `/proc/<pid>/stat` ticks when the
/// clock is unavailable; the second value names the source used.
pub fn process_cpu_ns(pid: u32) -> Option<(u64, &'static str)> {
    // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) from the kernel's
    // posix-timers ABI: (~pid << 3) | 2.
    let clock = ((!(pid as i32)) << 3) | 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // Linux) that outlives the call; `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        return Some((
            ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64,
            "cpu-clock",
        ));
    }
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(((utime + stime) * 10_000_000, "proc-stat-ticks"))
}

/// `(steal, total)` jiffies summed over every CPU, from the `cpu` line of
/// `/proc/stat`: the time the hypervisor ran something else on this
/// machine's virtual CPUs, and all time.
pub fn cpu_steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = *fields.get(7)?;
    // guest and guest_nice (fields 9 and 10) are already inside user/nice.
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// `VmHWM` (peak resident set) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over the repository's source tree, identifying the code under
/// test when the checkout carries no git metadata.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "vendor"] {
        walk(&root.join(sub), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in name.bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

/// The host and build description recorded with every result.
pub fn host_description(
    root: &Path,
    seed: u64,
    server_obs: bool,
    cpu_source: &str,
) -> dpcq_wire::Json {
    use dpcq_wire::Json;
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(nproc as i128)),
        ("kernel", Json::Str(kernel)),
        ("cpu_model", Json::Str(cpu_model)),
        ("server_obs_compiled_in", Json::Bool(server_obs)),
        (
            "server_threads_default",
            Json::Int(dpcq::sensitivity::prep::default_threads() as i128),
        ),
        ("server_cpu_source", Json::Str(cpu_source.to_string())),
        ("seed", Json::Int(i128::from(seed))),
        ("git_commit", Json::Str(git_commit(root))),
        ("source_digest", Json::Str(source_digest(root))),
    ])
}
