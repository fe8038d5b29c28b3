//! What a result was measured on, printed with every run so numbers from
//! different machines, build flags or sources are never compared
//! silently.

use std::path::Path;

/// Source trees whose bytes decide what the benchmark measures.
const SOURCE_ROOTS: [&str; 7] = [
    "Cargo.toml",
    "Cargo.lock",
    ".cargo/config.toml",
    "crates",
    "shims",
    "perfbench/src",
    "perfbench/Cargo.toml",
];

/// One JSON line describing the machine, build and source.
pub fn describe(workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or(String::new(), |(_, v)| v.trim().to_string())
    };
    let flags = field("flags");
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"traced\": {traced}, \"nproc\": {nproc}, \"cpu\": \"{}\", \
         \"avx512f\": {}, \"avx512_bf16\": {}, \"amx_tile\": {}, \
         \"built_for_avx512f\": {}, \"rustflags\": \"{}\", \"commit\": \"{}\", \
         \"source_fnv64\": \"{:016x}\"}}",
        escape(&field("model name")),
        has("avx512f"),
        has("avx512_bf16"),
        has("amx_tile"),
        cfg!(target_feature = "avx512f"),
        escape(env!("PERFBENCH_RUSTFLAGS")),
        escape(&commit()),
        source_digest(),
    )
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

/// The checked-out commit when the working directory is a git work
/// tree, read from `.git` without running git; `unknown` otherwise.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and bytes of every source file, in sorted
/// order: identifies the code measured when there is no commit to name.
pub fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in SOURCE_ROOTS {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    h
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            // Build output is not source.
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    }
}

/// Machine-wide CPU time from `/proc/stat`, to report how much of a
/// measured loop the hypervisor stole: steal slows every timing and is
/// not the program's doing.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// The current counters (zero where `/proc/stat` is unreadable).
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Percent of CPU time stolen since `self`.
    pub fn steal_percent_since(&self) -> f64 {
        let now = Self::now();
        let total = now.total.saturating_sub(self.total).max(1);
        100.0 * now.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}
