//! Seeded, output-checked end-to-end benchmark of the padding advisor
//! service, the global pad search and the figure sweeps, with a traced
//! per-layer profile. See `README.md` beside this crate.

pub mod gen;
pub mod layers;
pub mod profile;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweep;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use stats::{Fnv, Metric};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mixed advise requests through `padtool serve`.
    AdviseMix,
    /// Global layout searches through `padtool serve`.
    SearchExact,
    /// Figure-shaped sweep cells in-process.
    FigureSweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::AdviseMix, Workload::SearchExact, Workload::FigureSweep];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdviseMix => "advise-mix",
            Workload::SearchExact => "search-exact",
            Workload::FigureSweep => "figure-sweep",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a workload run needs from its environment.
pub struct Ctx<'a> {
    /// The `padtool` binary (serve workloads).
    pub padtool: &'a Path,
    /// Scratch directory for this run (trace files, journals).
    pub work: &'a Path,
    /// Directory for the spans file and remembered digests.
    pub out: &'a Path,
    /// Workload seed.
    pub seed: u64,
    /// `--seconds`: sizes the fixed work list.
    pub seconds: u64,
    /// Host and source description recorded with every run.
    pub header: String,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests or cells).
    pub attempted: usize,
    /// Operations that failed (error, shed, timeout, degraded, missing, ERR/TIMEOUT).
    pub failed: usize,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Report-only lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome for `attempted` operations.
    pub fn new(attempted: usize) -> Outcome {
        Outcome { attempted, ..Outcome::default() }
    }

    /// Records a failed check (the first 20 are kept verbatim).
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            self.problems.push(message);
        } else if self.problems.len() == 20 {
            self.problems.push("(further problems not shown)".into());
        }
    }

    /// True when every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Peak resident set (`VmHWM`) from a `/proc/<pid>/status` file, MB.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checkout this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the benchmark sits in the repository").to_path_buf()
}

/// Compares `digest` with the one remembered for the same workload, seed,
/// size and program build, then remembers it. A different digest for
/// identical inputs and code means the answers are not deterministic.
pub fn remember_digest(ctx: &Ctx, w: Workload, digest: &str) -> Result<(), String> {
    let build = match w {
        Workload::FigureSweep => std::env::current_exe().map_err(|e| e.to_string())?,
        _ => ctx.padtool.to_path_buf(),
    };
    let mut fnv = Fnv::default();
    fnv.eat(&std::fs::read(&build).map_err(|e| format!("{}: {e}", build.display()))?);
    let path = ctx.out.join(format!("digest-{}-{}-{}.txt", w.name(), ctx.seed, ctx.seconds));
    let line = format!("{} {digest}", fnv.hex());
    if let Ok(previous) = std::fs::read_to_string(&path) {
        let previous = previous.trim();
        if previous.split(' ').next() == Some(&fnv.hex()) && previous != line {
            return Err(format!("answer digest {digest} differs from an earlier run's ({previous})"));
        }
    }
    std::fs::write(&path, line).map_err(|e| e.to_string())
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(Stdio::null()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Digest of the repository's sources (every file under `crates/` plus
/// the root manifest and lock file), identifying the code when the
/// checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut fnv = Fnv::default();
    for f in files {
        fnv.eat(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
        fnv.eat(&std::fs::read(&f).unwrap_or_default());
    }
    fnv.hex()
}

/// Seed, code identity and host description recorded with every run: the
/// `cache-sim` lane kernels dispatch on AVX2/AVX-512, so numbers from
/// hosts with different flags must not be compared blind.
pub fn host_header(w: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let root = repo_root();
    let git = command_line(Command::new("git").arg("--git-dir").arg(root.join(".git")).args(["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "none".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| s.lines().find_map(|l| l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())))
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512) = (is_x86_feature_detected!("avx2"), is_x86_feature_detected!("avx512f"));
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512) = (false, false);
    format!(
        "# perfbench workload={w} seed={seed} seconds={seconds} trace={} git={git} source={} nproc={nproc} cpu=\"{cpu}\" avx2={avx2} avx512f={avx512}",
        u8::from(trace),
        source_digest(&root)
    )
}

/// Builds `padtool` from this checkout into the target directory the
/// benchmark itself was built in, and returns its path.
pub fn build_padtool() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the target directory")?
        .to_path_buf();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "padtool", "-p", "pad-cli", "--manifest-path"])
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building padtool failed ({status})"));
    }
    Ok(target.join("release").join("padtool"))
}

/// Runs one workload once (`traced` adds the per-layer replay).
pub fn run_workload(w: Workload, seed: u64, seconds: u64, traced: bool, padtool: &Path) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the target directory")?
        .join("perfbench");
    let work = out.join(format!("work-{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx { padtool, work: &work, out: &out, seed, seconds, header: host_header(w.name(), seed, seconds, traced) };
    println!("{}", ctx.header);
    let result = match w {
        Workload::FigureSweep => sweep::run(&ctx, traced),
        _ => serve::run(&ctx, w, traced),
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Formats a metric value for the JSON line: every digit, never `NaN`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[(String, &Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| format!(r#""{name}":{{"value":{},"unit":"{}"}}"#, json_number(m.value), m.unit))
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}

/// Human-readable report lines for one outcome.
pub fn report(w: Workload, o: &Outcome, traced: bool) -> Vec<String> {
    let mut lines = vec![format!(
        "== {} ({}): {} attempted, {} failed, checks {}",
        w.name(),
        if traced { "traced" } else { "untraced" },
        o.attempted,
        o.failed,
        if o.problems.is_empty() { "passed" } else { "FAILED" }
    )];
    for p in &o.problems {
        lines.push(format!("  check failed: {p}"));
    }
    for m in o.e2e.iter().chain(&o.layers) {
        let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        lines.push(format!("  {:<28} {:>14.6} {}{n}", m.name, m.value, m.unit));
    }
    for note in &o.notes {
        lines.push(format!("  {note}"));
    }
    lines
}
