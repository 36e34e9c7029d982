//! Process measurements and run provenance, read from outside the
//! program under test (`/proc`, the checkout's files, the build).

use crate::stats::Fnv;
use std::path::{Path, PathBuf};

/// Environment toggles that change what the program computes or how it
/// times itself. The benchmark refuses to run while any is set.
pub const REFUSED_ENV: &[&str] = &[
    "PROTEAN_SCHED",
    "PROTEAN_DECODE_CACHE",
    "PROTEAN_ORACLE",
    "PROTEAN_CAMPAIGN_ENGINE",
    "PROTEAN_PROFILE",
    "PROTEAN_TRACE",
];

/// The refused toggles that are set in this process's environment.
pub fn set_toggles() -> Vec<&'static str> {
    REFUSED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn proc_status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// User plus system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, after the parenthesised
    // command name, in clock ticks (USER_HZ, 100 on Linux).
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `after` starts at field 3 (state), so field n sits at index n - 3.
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout root: the parent of this package's directory when built
/// from it, else the working directory.
pub fn checkout_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .filter(|p| p.join("crates").is_dir())
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The git commit of the checkout, read from `.git` without running
/// git; `"none"` when the checkout is not a repository.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| packed_ref(&git, r))
            .map_or_else(|| "none".into(), |s| s.trim().to_string()),
    }
}

fn packed_ref(git: &Path, name: &str) -> Option<String> {
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
}

/// FNV-1a over every source file of the workspace's crates and its
/// manifests, in path order: identifies the code measured even when the
/// checkout carries no git metadata.
pub fn source_hash(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            h.field(&rel.to_string_lossy());
            h.write(&bytes);
        }
    }
    h.hex()
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "json")
        {
            out.push(path);
        }
    }
}

/// `rustc -V` of the compiler that built this benchmark.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}
