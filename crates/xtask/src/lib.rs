//! Workspace automation, invoked as `cargo run -p xtask -- <task>`.
//!
//! # `analyze`
//!
//! The multi-pass static-analysis framework (see [`analysis`]): lexes
//! every workspace source file once into a shared token stream and runs
//! three passes —
//!
//! 1. **panic-discipline** — bans `unwrap`/`expect`/`panic!`/
//!    `unreachable!`/indexing-adjacent `assert!` in production code of the
//!    disciplined crates unless annotated `// panic-ok: <reason>`;
//! 2. **atomics** — every production `Ordering::Relaxed` carries a
//!    `// relaxed-ok:` reason, and every `unsafe` a `// SAFETY:` comment;
//! 3. **plan-invariants** — every workloads suite entry compiled to full
//!    and cone-restricted launch plans and checked structurally
//!    (`gatspi_core::audit`).
//!
//! `analyze` fails on any error finding. A finding is accepted only by an
//! inline reason at its site — `// panic-ok:` or `// relaxed-ok:` — so the
//! reason sits next to the code it excuses. There is no payload registry
//! to audit: the engine has one panic boundary, `isolate` in
//! `gatspi_core::session`, which turns any panic into
//! `CoreError::DeviceFault`.
//! `--json <path>` writes the full diagnostics document.
//!
//! # `bench-check`
//!
//! Validates the committed `BENCH_*.json` trajectory artifacts (see
//! [`mod@bench`]).
//!
//! # `gate`
//!
//! Runs the checks every change must pass, in CI's order — build, tests,
//! the benchmark package's tests, clippy, rustfmt, bench compilation,
//! rustdoc, `analyze`, `bench-check` — printing each one's wall and
//! stopping at the first failure (see [`mod@gate`]).
//!
//! # `loc [DIR…]`
//!
//! Prints the non-test, non-comment, non-blank line count of each
//! directory, by default of every `crates/*/src` (see [`mod@loc`]).

pub mod analysis;
pub mod bench;
pub mod gate;
pub mod loc;

use std::path::{Path, PathBuf};

/// The workspace root (two levels up from the xtask manifest).
pub fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask manifest dir has no workspace root")
        .to_path_buf()
}

/// Recursively collects `.rs` files, skipping `target/` and dot-dirs.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}
