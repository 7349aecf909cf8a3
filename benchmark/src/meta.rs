//! Where a set of numbers was measured: recorded in every report file so
//! two sets are only compared knowingly across machines.

use ladon_obs::Json;
use std::path::Path;
use std::process::Command;

/// First line of a command's standard output, or `"unknown"`.
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`
/// (longest mount-point prefix wins), or `"unknown"`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The report's `meta` block.
pub fn meta(seed: u64, seconds: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    Json::Obj(vec![
        ("nproc".into(), Json::U64(nproc)),
        ("kernel".into(), Json::Str(kernel)),
        ("rustc".into(), Json::Str(first_line("rustc", &["-V"]))),
        (
            "git_commit".into(),
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "scratch_fs".into(),
            Json::Str(filesystem_of(&crate::out_dir())),
        ),
        ("seed".into(), Json::U64(seed)),
        ("seconds".into(), Json::F64(seconds)),
    ])
}
