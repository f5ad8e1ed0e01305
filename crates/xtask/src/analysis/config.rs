//! Static configuration shared by the passes: which paths are production
//! code.

/// Production (non-test) code held to the panic discipline: the engine
/// crates, where `Session`'s single panic boundary turns any panic into a
/// failed run, and the Verilog and SDF readers, which take user files
/// straight from the CLI.
pub const DISCIPLINED_ROOTS: &[&str] = &[
    "crates/core/src/",
    "crates/gpu/src/",
    "crates/netlist/src/verilog.rs",
    "crates/sdf/src/parser.rs",
];

/// Paths exempt from production-code rules wholesale: test/bench/example
/// trees and the analyzer's own deliberately-bad fixtures.
pub fn exempt_path(label: &str) -> bool {
    let in_dir =
        |dir: &str| label.starts_with(&format!("{dir}/")) || label.contains(&format!("/{dir}/"));
    in_dir("tests")
        || in_dir("benches")
        || in_dir("examples")
        || label.contains("crates/xtask/tests/fixtures/")
}

/// Whether `label` is production code of a disciplined crate.
pub fn disciplined_prod(label: &str) -> bool {
    DISCIPLINED_ROOTS.iter().any(|r| label.starts_with(r)) && !exempt_path(label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_classification() {
        assert!(disciplined_prod("crates/core/src/session.rs"));
        assert!(disciplined_prod("crates/gpu/src/device.rs"));
        assert!(!disciplined_prod("crates/core/tests/refsim.rs"));
        assert!(!disciplined_prod("crates/bench/src/lib.rs"));
        assert!(!disciplined_prod(
            "crates/xtask/tests/fixtures/panic/bad.rs"
        ));
    }
}
