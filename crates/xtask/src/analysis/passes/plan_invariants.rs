//! Pass 5 — plan-invariant validation: static analysis of *compiled*
//! launch plans.
//!
//! The other passes read source; this one compiles every workloads suite
//! entry into the engine's cached launch schedules — full and
//! cone-restricted — and runs [`gatspi_core::audit`]'s structural checker
//! over each: levels topologically consistent and within the scratch
//! column, thread tables within gate bounds, cone
//! restrictions closed under fanout, LUT offsets valid. A schedule-builder
//! regression that produces a structurally wrong plan fails CI here even
//! if no simulation test happens to execute the broken corner.

use crate::analysis::diag::{Diagnostic, Severity};
use gatspi_core::audit;
use gatspi_workloads::suite::BenchmarkDef;

/// Suite build scale: small enough that all twelve designs compile their
/// plans in seconds, large enough that multi-level cones occur.
/// Override with `GATSPI_ANALYZE_SCALE`.
pub fn default_scale() -> f64 {
    std::env::var("GATSPI_ANALYZE_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(0.05)
}

/// Window counts exercised per design.
pub const PLAN_SHAPES: &[usize] = &[4];

/// Validates every suite entry's full and cone-restricted plans.
/// Returns one diagnostic per structural defect (empty = all plans sound).
pub fn run(suite: &[BenchmarkDef], scale: f64) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for def in suite {
        let built = def.build_at_scale(scale);
        let label = format!("workloads:{}", built.label());
        let graph = &built.graph;
        // A sparse changed set (every 47th gate) yields a multi-level cone
        // in every design; the empty set checks the degenerate plan.
        let sparse: Vec<bool> = (0..graph.n_gates()).map(|g| g % 47 == 0).collect();
        let empty = vec![false; graph.n_gates()];
        for &nw in PLAN_SHAPES {
            let mut report = |plan: &str, defects: Vec<String>| {
                for d in defects {
                    out.push(Diagnostic {
                        pass: "plan-invariants",
                        rule: "structural",
                        file: label.clone(),
                        line: 0,
                        severity: Severity::Error,
                        msg: format!("{plan} plan (nw={nw}): {d}"),
                    });
                }
            };
            report("full", audit::validate_full_plan(graph, nw));
            report("cone", audit::validate_cone_plan(graph, nw, &sparse));
            report("empty-cone", audit::validate_cone_plan(graph, nw, &empty));
        }
    }
    out
}
