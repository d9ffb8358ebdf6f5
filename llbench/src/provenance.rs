//! The stamp every result carries: commit, a digest of the sources the
//! benchmark was built from, host, core count, toolchain, date and seed.

use crate::util::hash_bytes;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The stamp as one JSON object.
pub fn stamp(seed: u64) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"commit\": \"{}\", \"source_digest\": \"{:016x}\", \"host\": \"{}\", \"nproc\": {nproc}, \
         \"rustc\": \"{}\", \"date\": \"{}\", \"seed\": {seed}}}",
        commit(&root),
        source_digest(&root),
        host(),
        command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        utc_now(),
    )
}

/// `git rev-parse HEAD` when the tree is a git checkout, else "unknown"
/// (the source digest then identifies the code).
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    let root = root.to_string_lossy();
    command_line("git", &["-C", &root, "rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

/// Hash over every file under `crates/` and `grammars/`, in path order.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("grammars"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
        all.extend_from_slice(&std::fs::read(&f).unwrap_or_default());
    }
    hash_bytes(&all)
}

fn host() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .or_else(|| std::fs::read_to_string("/proc/sys/kernel/hostname").ok())
        .map(|h| h.trim().to_string())
        .filter(|h| !h.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, waiting for it to exit.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().replace('"', "'");
    (out.status.success() && !line.is_empty()).then_some(line)
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    // Civil-from-days (proleptic Gregorian), after H. Hinnant.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}
