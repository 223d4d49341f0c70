//! Host and provenance stamp, and process memory.

use std::process::Command;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// First line of a command's stdout, or `fallback` when it cannot run.
/// `output()` waits for the child, so nothing outlives the call.
fn command_line(program: &str, args: &[&str], fallback: &str) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| fallback.to_owned())
}

/// The host fingerprint results are grouped by: results with different
/// fingerprints are shown side by side, never compared.
pub fn host() -> String {
    format!("nproc={} cpu={}", nproc(), cpu_model())
}

/// `(key, value)` stamp pairs for the result file.
pub fn stamp() -> Vec<(&'static str, String)> {
    vec![
        ("host", host()),
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu_model()),
        ("rustc", command_line("rustc", &["--version"], "unknown")),
        (
            "git_rev",
            command_line("git", &["rev-parse", "HEAD"], "none (not a git checkout)"),
        ),
    ]
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Caps this process's address space at `bytes`, so that a runaway
/// allocation in the program under test aborts the run instead of
/// exhausting a machine it may share. The hard limit is left as it is.
#[cfg(target_os = "linux")]
pub fn cap_address_space(bytes: u64) {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    const RLIMIT_AS: i32 = 9;
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `RLimit` has the layout of Linux's `struct rlimit` on the
    // 64-bit targets this runs on (two `rlim_t` = `u64` fields), and both
    // calls only read or write the one struct passed by pointer, which
    // lives across the call.
    unsafe {
        if getrlimit(RLIMIT_AS, &mut lim) == 0 {
            lim.cur = bytes.min(lim.max);
            setrlimit(RLIMIT_AS, &lim);
        }
    }
}

#[cfg(not(target_os = "linux"))]
pub fn cap_address_space(_bytes: u64) {}
