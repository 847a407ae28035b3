//! The environment a result was measured in, and the guards that refuse
//! to measure where the numbers would mean something else.

use crate::spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use stm_perf::json::Json;

/// WAL scratch directories live here, under the checkout: the
/// repository's own filesystem, never `/tmp`.
pub fn scratch_root() -> PathBuf {
    PathBuf::from("target/benchmark-scratch")
}

/// A fresh, empty directory under the scratch root for one test.
#[cfg(test)]
pub fn test_dir(tag: &str) -> PathBuf {
    let dir = scratch_root().join(format!("test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Result files and span traces are written here.
pub fn output_dir() -> PathBuf {
    PathBuf::from("target/benchmark")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Decode the octal escapes (`\040` = space) of a mountinfo field.
fn unescape_mount(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    let mut rest = field;
    while let Some(pos) = rest.find('\\') {
        out.push_str(&rest[..pos]);
        let code = rest
            .get(pos + 1..pos + 4)
            .and_then(|s| u8::from_str_radix(s, 8).ok());
        match code {
            Some(b) => {
                out.push(b as char);
                rest = &rest[pos + 4..];
            }
            None => {
                out.push('\\');
                rest = &rest[pos + 1..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// Filesystem type of the mount that holds `path`, from `mountinfo`
/// text: the mount point that is the longest prefix of `path` wins,
/// the later line among equals (it is mounted on top).
pub fn fs_type_in(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <opts>"
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fs_type)) = (left.split(' ').nth(4), right.split(' ').next())
        else {
            continue;
        };
        let mount_point = unescape_mount(mount_point);
        if path.starts_with(&mount_point) {
            let len = mount_point.len();
            if best.as_ref().is_none_or(|(l, _)| len >= *l) {
                best = Some((len, fs_type.to_string()));
            }
        }
    }
    best.map(|(_, t)| t)
}

/// Filesystem type of the mount holding `dir` (which must exist).
pub fn fs_type_of(dir: &Path) -> String {
    let resolved = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/self/mountinfo")
        .ok()
        .and_then(|text| fs_type_in(&text, &resolved))
        .unwrap_or_else(|| "unknown".to_string())
}

/// On these an `fsync` is free, so `kv-*` would measure nothing.
pub fn is_memory_fs(fs_type: &str) -> bool {
    matches!(fs_type, "tmpfs" | "ramfs" | "devtmpfs")
}

/// Refuse a load the host cannot carry: more closed-loop clients than
/// cores measures the scheduler, not the system.
pub fn check_clients(clients: usize, cores: usize) -> Result<(), String> {
    if clients > cores {
        return Err(format!(
            "{clients} client threads on {cores} core(s): refusing to run more clients than cores"
        ));
    }
    Ok(())
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The stamp written into every output file.
pub fn stamp(seed: u64, seconds: u64, traced: bool) -> BTreeMap<String, Json> {
    let scratch = scratch_root();
    let _ = std::fs::create_dir_all(&scratch);
    let text = |s: Option<String>| Json::Str(s.unwrap_or_else(|| "unknown".to_string()));
    BTreeMap::from([
        (
            "git_commit".to_string(),
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".to_string(), text(command_line("rustc", &["-V"]))),
        ("nproc".to_string(), Json::Num(nproc() as f64)),
        (
            "kernel".to_string(),
            text(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .ok()
                    .map(|s| s.trim().to_string()),
            ),
        ),
        ("scratch_fs".to_string(), Json::Str(fs_type_of(&scratch))),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds as f64)),
        (
            "trial_seconds".to_string(),
            Json::Num(seconds as f64 / spec::TRIALS as f64),
        ),
        ("trials".to_string(), Json::Num(spec::TRIALS as f64)),
        ("clients".to_string(), Json::Num(spec::CLIENTS as f64)),
        ("traced".to_string(), Json::Bool(traced)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const MOUNTS: &str = "\
22 1 254:0 / / rw,relatime - ext4 /dev/vda rw
30 22 0:26 / /tmp rw,nosuid - tmpfs tmpfs rw
31 22 0:27 / /root/my\\040repo rw - xfs /dev/vdb rw
32 22 0:28 / /tmp rw - ramfs none rw
";

    #[test]
    fn the_longest_mount_point_wins_and_later_mounts_shadow() {
        let fs = |p: &str| fs_type_in(MOUNTS, Path::new(p)).unwrap();
        assert_eq!(fs("/root/repo/target"), "ext4");
        assert_eq!(fs("/tmp/x"), "ramfs");
        assert_eq!(fs("/root/my repo/target"), "xfs");
        // A prefix of the name is not a prefix of the path.
        assert_eq!(fs("/tmpfiles"), "ext4");
    }

    #[test]
    fn memory_filesystems_and_oversubscription_are_refused() {
        assert!(is_memory_fs("tmpfs"));
        assert!(is_memory_fs("ramfs"));
        assert!(!is_memory_fs("ext4"));
        assert!(check_clients(2, 2).is_ok());
        assert!(check_clients(3, 2).is_err());
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
