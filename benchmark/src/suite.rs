//! `all`: every workload, each in its own child process, one after the
//! other — so `peak_rss_mb` belongs to one workload and no workload warms
//! the next one's allocator — first untraced, then traced.

use std::process::Command;

use crate::json::Json;
use crate::Workload;

/// Marks the line of a child's output that carries [`Outcome::detail`].
///
/// [`Outcome::detail`]: crate::report::Outcome::detail
pub const DETAIL_PREFIX: &str = "#detail ";

/// The traced pass runs for this share of the untraced pass's seconds; with
/// every other iteration recorded, about a quarter as many are traced.
const TRACED_SECONDS_SHARE: f64 = 0.5;

/// Settings of one `all` invocation.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Seed handed to every workload.
    pub seed: u64,
    /// Seconds of each untraced measured phase.
    pub seconds: f64,
    /// Pass `--smoke` to the children.
    pub smoke: bool,
}

fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What a result is only comparable under.
pub fn environment(cfg: &SuiteConfig) -> Json {
    Json::obj()
        .with("nproc", online_cpus())
        .with(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("rustc", env!("GATSPI_BENCHMARK_RUSTC"))
        .with("git_commit", git_commit())
        .with("seed", cfg.seed)
        .with("seconds", cfg.seconds)
        .with("smoke", cfg.smoke)
}

/// Runs one workload in a child process and returns its detail object.
fn run_child(workload: Workload, cfg: &SuiteConfig, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = if traced {
        cfg.seconds * TRACED_SECONDS_SHARE
    } else {
        cfg.seconds
    };
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives this call.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| {
            format!(
                "{} printed no result ({}): {}",
                workload.name(),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })?;
    for line in stdout
        .lines()
        .filter(|l| l.starts_with(' ') || l.starts_with(workload.name()))
    {
        println!("{line}");
    }
    let detail = Json::parse(detail)?;
    if !out.status.success() {
        eprintln!("{} exited with {}", workload.name(), out.status);
    }
    Ok(detail)
}

/// Runs the whole set and returns the result file's content and whether
/// every run was correct.
pub fn run_all(cfg: &SuiteConfig) -> Result<(Json, bool), String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for traced in [false, true] {
        for workload in Workload::ALL {
            let detail = run_child(workload, cfg, traced)?;
            all_correct &= detail.get("failed").and_then(Json::as_f64) == Some(0.0);
            runs.push(detail);
        }
    }
    let file = Json::obj()
        .with("schema", 1usize)
        .with("environment", environment(cfg))
        .with("runs", Json::Arr(runs));
    Ok((file, all_correct))
}
