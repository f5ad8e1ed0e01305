//! `gate`: every check a change must pass before review, in CI's order —
//! build, tier-1 tests, the benchmark package's tests, clippy, rustfmt,
//! bench compilation, rustdoc, `analyze` and `bench-check`. Each gate's
//! wall is printed as it finishes; the first failure stops the run with a
//! non-zero exit.

use std::process::{Command, ExitCode};
use std::time::Instant;

/// How a gate runs.
enum Step {
    /// A cargo command (its arguments) with extra environment variables.
    Cargo(
        &'static [&'static str],
        &'static [(&'static str, &'static str)],
    ),
    /// An xtask task, run in this process.
    Task(fn() -> ExitCode),
}

/// The gates, in CI's order (`.github/workflows/ci.yml`; the examples'
/// smoke runs are left to CI).
const GATES: &[(&str, Step)] = &[
    ("build", Step::Cargo(&["build", "--release"], &[])),
    ("test", Step::Cargo(&["test", "-q"], &[])),
    (
        "benchmark tests",
        Step::Cargo(&["test", "--manifest-path", "benchmark/Cargo.toml"], &[]),
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
            Step::Cargo(args, env) => {
                let status = Command::new(&cargo)
                    .args(*args)
                    .envs(env.iter().copied())
                    .current_dir(&root)
                    .status();
                match status {
                    Ok(status) => status.success(),
                    Err(e) => {
                        eprintln!("gate {name}: cannot run {cargo}: {e}");
                        false
                    }
                }
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
                Step::Cargo(args, _) => format!("cargo {}", args.join(" ")),
                Step::Task(_) => format!("cargo run -p xtask -- {name}"),
            };
            let at = ci
                .find(&needle)
                .unwrap_or_else(|| panic!("`{needle}` is not a CI step"));
            assert!(at > last, "gate {name} runs out of CI's order");
            last = at;
        }
    }
}
