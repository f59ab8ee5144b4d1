//! The host and revision stamp printed with every result set, and the
//! `/proc/self` readings the metrics take (peak RSS, CPU time).

use std::path::Path;
use std::process::{Command, Stdio};

/// The stamp line: `nproc`, CPU model, rustc version, git revision
/// (`unknown` outside a git checkout), build profile, and the file-system
/// type of `work`, where the campaigns write (record publication cost
/// differs between disk and tmpfs).
pub fn stamp(repo: &Path, work: &Path) -> String {
    format!(
        "stamp: nproc={} cpu=\"{}\" rustc=\"{}\" git_rev={} profile={} fs={}",
        nproc(),
        cpu_model(),
        command_line("rustc", &["--version"], repo),
        command_line("git", &["rev-parse", "HEAD"], repo),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        fs_type(work)
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The first line a tool prints, or `unknown` when it is missing or fails.
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The type of the mount holding `path`: the longest mount point that is
/// a prefix of it.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    // utime and stime are fields 14 and 15 of /proc/self/stat, counted in
    // USER_HZ ticks, which Linux fixes at 100 for this interface. The
    // command name (field 2) may hold spaces, so count from its `)`.
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // After `)`: field 3 is index 0, so utime (14) is 11 and stime (15) 12.
    (ticks(11) + ticks(12)) as f64 / 100.0
}
