//! The host and build a run was measured on. `compare` refuses to pair
//! runs whose fingerprints differ in anything but the git revision.

use std::path::Path;
use std::process::Command;

use tiling3d_obs::json::Json;

/// Fields that may differ between the two sides of a comparison.
pub const MAY_DIFFER: &[&str] = &["git_rev", "git_dirty"];

/// Collects the fingerprint of this process's host and build.
pub fn collect(seed: u64, seconds: u64) -> Json {
    let rustflags = env!("BENCH_RUSTFLAGS");
    let target_cpu = rustflags
        .split_whitespace()
        .find_map(|f| f.strip_prefix("target-cpu="))
        .unwrap_or("default");
    let (rev, dirty) = git();
    Json::obj(vec![
        ("cpu_model", Json::str(cpu_model())),
        (
            "nproc",
            Json::uint(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("l1d", Json::str(cache_size(1, "Data"))),
        ("l2", Json::str(cache_size(2, "Unified"))),
        ("l3", Json::str(cache_size(3, "Unified"))),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("rustflags", Json::str(rustflags)),
        ("target_cpu", Json::str(target_cpu)),
        ("git_rev", Json::str(rev)),
        ("git_dirty", Json::Bool(dirty)),
        ("seed", Json::uint(seed)),
        ("seconds", Json::uint(seconds)),
    ])
}

/// The fields of `a` and `b` that differ, ignoring [`MAY_DIFFER`].
pub fn differences(a: &Json, b: &Json) -> Vec<String> {
    let (Json::Obj(fa), Json::Obj(fb)) = (a, b) else {
        return vec!["fingerprint is not an object".to_string()];
    };
    let keys: std::collections::BTreeSet<&String> =
        fa.iter().chain(fb.iter()).map(|(k, _)| k).collect();
    keys.into_iter()
        .filter(|k| !MAY_DIFFER.contains(&k.as_str()))
        .filter(|k| a.get(k) != b.get(k))
        .map(|k| {
            let show = |v: Option<&Json>| v.map_or("absent".to_string(), Json::render);
            format!("{k}: {} vs {}", show(a.get(k)), show(b.get(k)))
        })
        .collect()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The size of cpu0's cache at `level` of `kind`, as the kernel spells it
/// (`48K`), or `unknown`.
fn cache_size(level: u32, kind: &str) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .map(|i| base.join(format!("index{i}")))
        .find(|dir| {
            let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
            read("level").trim() == level.to_string() && read("type").trim() == kind
        })
        .and_then(|dir| std::fs::read_to_string(dir.join("size")).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `(revision, dirty)` of the git checkout in the current directory, or
/// `("none", false)` when it is not one. Git is stopped from searching
/// parent directories, so a checkout that is not a repository never
/// reports an enclosing one.
fn git() -> (String, bool) {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd
        .as_deref()
        .and_then(Path::parent)
        .map(|p| p.display().to_string())
        .unwrap_or_default();
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match run(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = run(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            (rev, dirty)
        }
        None => ("none".to_string(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differences_ignore_only_the_git_fields() {
        let a = collect(1, 15);
        let mut fields = match &a {
            Json::Obj(f) => f.clone(),
            _ => unreachable!(),
        };
        for (k, v) in &mut fields {
            if k == "git_rev" {
                *v = Json::str("other");
            }
        }
        let b = Json::Obj(fields.clone());
        assert!(differences(&a, &b).is_empty());
        for (k, v) in &mut fields {
            if k == "seed" {
                *v = Json::uint(2);
            }
        }
        let c = Json::Obj(fields);
        assert_eq!(differences(&a, &c).len(), 1);
    }
}
