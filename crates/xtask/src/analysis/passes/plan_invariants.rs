//! Pass 4 — plan-invariant validation: static analysis of *compiled*
//! launch plans.
//!
//! The other passes read source; this one compiles every workloads suite
//! entry into the engine's launch schedules — one full plan, which serves
//! every window count, and two cone-restricted ones — and runs
//! [`gatspi_core::audit`]'s structural checker over each: levels
//! topologically consistent, the widest level that sizes the scratch
//! columns recorded correctly, thread tables within gate bounds, cone
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
        let mut report = |plan: &str, defects: Vec<String>| {
            for d in defects {
                out.push(Diagnostic {
                    pass: "plan-invariants",
                    rule: "structural",
                    file: label.clone(),
                    line: 0,
                    severity: Severity::Error,
                    msg: format!("{plan} plan: {d}"),
                });
            }
        };
        report("full", audit::validate_full_plan(graph));
        report("cone", audit::validate_cone_plan(graph, &sparse));
        report("empty-cone", audit::validate_cone_plan(graph, &empty));
    }
    out
}
