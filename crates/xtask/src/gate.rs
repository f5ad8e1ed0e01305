//! `gate`: every check a change must pass before review, in CI's order —
//! build, tier-1 tests, the benchmark package's tests, the examples' smoke
//! runs (`multi_gpu_scan` twice, its two outputs compared), clippy,
//! rustfmt, bench compilation, Table 2's SAIF bit-exactness check (its
//! bench at `GATSPI_SCALE=0.1`), rustdoc, `analyze` and `bench-check`. Each
//! gate's wall is printed as it finishes; the first failure stops the run
//! with a non-zero exit.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// How a gate runs.
enum Step {
    /// A cargo command (its arguments) with extra environment variables.
    Cargo(
        &'static [&'static str],
        &'static [(&'static str, &'static str)],
    ),
    /// A cargo command run twice; the two runs must print the same output.
    Twice(&'static [&'static str]),
    /// An xtask task, run in this process.
    Task(fn() -> ExitCode),
}

/// The gates, in CI's order (`.github/workflows/ci.yml`).
const GATES: &[(&str, Step)] = &[
    ("build", Step::Cargo(&["build", "--release"], &[])),
    ("test", Step::Cargo(&["test", "-q"], &[])),
    (
        "benchmark tests",
        Step::Cargo(&["test", "--manifest-path", "benchmark/Cargo.toml"], &[]),
    ),
    (
        "quickstart",
        Step::Cargo(&["run", "--release", "--example", "quickstart"], &[]),
    ),
    (
        "power estimation",
        Step::Cargo(&["run", "--release", "--example", "power_estimation"], &[]),
    ),
    (
        "file-based flow",
        Step::Cargo(&["run", "--release", "--example", "file_based_flow"], &[]),
    ),
    (
        "eco flow",
        Step::Cargo(&["run", "--release", "--example", "eco_flow"], &[]),
    ),
    (
        "glitch optimization",
        Step::Cargo(
            &["run", "--release", "--example", "glitch_optimization"],
            &[],
        ),
    ),
    (
        "multi-GPU scan",
        Step::Twice(&["run", "--release", "--example", "multi_gpu_scan"]),
    ),
    (
        "clippy",
        Step::Cargo(
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
            &[],
        ),
    ),
    ("fmt", Step::Cargo(&["fmt", "--check"], &[])),
    ("benches compile", Step::Cargo(&["bench", "--no-run"], &[])),
    (
        "table 2 bit-exactness",
        Step::Cargo(&["bench", "--bench", "table2"], &[("GATSPI_SCALE", "0.1")]),
    ),
    (
        "doc",
        Step::Cargo(&["doc", "--no-deps"], &[("RUSTDOCFLAGS", "-D warnings")]),
    ),
    ("analyze", Step::Task(analyze)),
    ("bench-check", Step::Task(crate::bench::bench_check)),
];

fn analyze() -> ExitCode {
    crate::analysis::run_analyze(&crate::analysis::AnalyzeOptions::default())
}

/// Runs every gate from the workspace root; stops at the first failure.
pub fn run_gate() -> ExitCode {
    let root = crate::workspace_root();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let t_all = Instant::now();
    for (name, step) in GATES {
        let t0 = Instant::now();
        let ok = match step {
            Step::Cargo(args, env) => run_cargo(&cargo, &root, args, env, false).is_some(),
            Step::Twice(args) => {
                let run = || run_cargo(&cargo, &root, args, &[], true);
                let same = run().and_then(|first| run().map(|second| first == second));
                if same == Some(false) {
                    eprintln!("gate {name}: the two runs printed different output");
                }
                same == Some(true)
            }
            Step::Task(task) => task() == ExitCode::SUCCESS,
        };
        let wall = t0.elapsed().as_secs_f64();
        if !ok {
            eprintln!("gate {name}: FAILED after {wall:.1} s");
            return ExitCode::FAILURE;
        }
        println!("gate {name}: ok in {wall:.1} s");
    }
    let total = t_all.elapsed().as_secs_f64();
    println!("gate: all {} gates passed in {total:.1} s", GATES.len());
    ExitCode::SUCCESS
}

/// Runs `cargo args` from `root` with `env`. Returns its stdout — empty
/// unless `capture` is set, else passed through — or `None` when the
/// command cannot start or fails.
fn run_cargo(
    cargo: &str,
    root: &Path,
    args: &[&str],
    env: &[(&str, &str)],
    capture: bool,
) -> Option<Vec<u8>> {
    let stdout = if capture {
        Stdio::piped()
    } else {
        Stdio::inherit()
    };
    let output = Command::new(cargo)
        .args(args)
        .envs(env.iter().copied())
        .current_dir(root)
        .stdout(stdout)
        .stderr(Stdio::inherit())
        .output();
    match output {
        Ok(output) if output.status.success() => Some(output.stdout),
        Ok(_) => None,
        Err(e) => {
            eprintln!("cannot run {cargo}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Step, GATES};

    /// Every gate is a step of CI, and the gates keep CI's order.
    #[test]
    fn gates_follow_ci_order() {
        let ci = std::fs::read_to_string(crate::workspace_root().join(".github/workflows/ci.yml"))
            .expect("CI workflow");
        let mut last = 0;
        for (name, step) in GATES {
            let needle = match step {
                Step::Cargo(args, _) | Step::Twice(args) => format!("cargo {}", args.join(" ")),
                Step::Task(_) => format!("cargo run -p xtask -- {name}"),
            };
            let at = ci
                .find(&needle)
                .unwrap_or_else(|| panic!("`{needle}` is not a CI step"));
            assert!(at > last, "gate {name} runs out of CI's order");
            last = at;
        }
    }

    /// Every example CI smoke-runs is a gate.
    #[test]
    fn gates_cover_ci_examples() {
        let ci = std::fs::read_to_string(crate::workspace_root().join(".github/workflows/ci.yml"))
            .expect("CI workflow");
        let examples = ci.lines().filter_map(|l| l.split("--example ").nth(1));
        for example in examples.filter_map(|rest| rest.split_whitespace().next()) {
            let gated = GATES.iter().any(|(_, step)| {
                matches!(step, Step::Cargo(args, _) | Step::Twice(args) if args.contains(&example))
            });
            assert!(gated, "CI smoke-runs example `{example}` outside the gates");
        }
    }
}
