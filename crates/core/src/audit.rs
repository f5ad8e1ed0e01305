//! Structural auditing of compiled launch plans.
//!
//! The engine's launch schedules ([`schedule`](crate) internals) bake every
//! decision that does not depend on a batch's window count — level
//! partitioning, gate descriptors, pin tables, the widest level that sizes
//! the scratch columns — into flat arrays the kernels index without
//! checking. That makes plan-compile bugs silent until a kernel reads
//! garbage, which is exactly the failure class a simulator cannot afford: a
//! wrong LUT offset produces plausible-but-wrong delays, not a crash. One
//! plan per design (and one per incremental cone) serves every window
//! count, so auditing it once covers every batch that runs it.
//!
//! This module exposes the schedule's structural checker to tooling without
//! exposing the schedule types themselves: [`validate_full_plan`] and
//! [`validate_cone_plan`] compile a plan exactly the way
//! [`Session`](crate::Session) would (same builder) and return one human-readable message per violated invariant.
//! `cargo run -p xtask -- analyze` (its plan-invariants pass) runs them
//! over every workloads suite entry in CI; the mutation tests in the
//! schedule module pin down that each invariant class actually fires.
//!
//! Checked invariants (empty return = sound plan):
//!
//! * flat-table shapes: descriptor/output/pin-CSR arrays sized to the slot
//!   count, pin CSR monotone from 0 and consistent with the pin tables;
//! * levels form a contiguous, non-empty partition of the slots, and the
//!   recorded widest level (which sizes a batch's scratch columns as
//!   widest level × windows) equals the largest level's gate count;
//! * every slot's baked [`GateDesc`](crate::GateDesc), output signal, pin
//!   signals, and interconnect delays agree with the graph, with
//!   truth-table and delay-LUT offsets inside the flat pools;
//! * topological consistency: each pin's producer runs at a strictly
//!   earlier level, or — for cone plans only — is supplied by the cone's
//!   boundary stimulus;
//! * coverage: full plans schedule every gate exactly once; cone plans
//!   schedule exactly the cone's gates and the cone is closed under fanout.

use crate::schedule::{ConeInfo, LevelSchedule};

use gatspi_graph::CircuitGraph;

/// Compiles the full-graph launch plan and audits it. Returns one message
/// per structural defect; an empty vector means the plan upholds every
/// invariant listed in the [module docs](self).
pub fn validate_full_plan(graph: &CircuitGraph) -> Vec<String> {
    let plan = LevelSchedule::build(graph);
    plan.validate(graph, None)
}

/// Compiles the cone-restricted launch plan for the fan-out cone of
/// `changed` (per-gate flags, one per graph gate) and audits it, including
/// the cone-specific checks: closure under fanout, boundary-stimulus
/// completeness, and exact gate coverage. Returns one message per defect.
///
/// A `changed` slice of the wrong length is reported as a defect rather
/// than panicking, so audit tooling can feed it untrusted inputs.
pub fn validate_cone_plan(graph: &CircuitGraph, changed: &[bool]) -> Vec<String> {
    if changed.len() != graph.n_gates() {
        return vec![format!(
            "changed-gate flags cover {} gates, graph has {}",
            changed.len(),
            graph.n_gates()
        )];
    }
    let cone = ConeInfo::of(graph, changed);
    let plan = LevelSchedule::restrict(graph, &cone);
    plan.validate(graph, Some(&cone))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatspi_graph::GraphOptions;
    use gatspi_netlist::{CellLibrary, NetlistBuilder};

    fn chain(n: usize) -> CircuitGraph {
        let mut b = NetlistBuilder::new("chain", CellLibrary::industry_mini());
        let mut prev = b.add_input("a").unwrap();
        for i in 0..n {
            let net = b.add_net(&format!("n{i}")).unwrap();
            b.add_gate(&format!("u{i}"), "INV", &[prev], net).unwrap();
            prev = net;
        }
        b.mark_output(prev);
        CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap()
    }

    #[test]
    fn wrappers_audit_clean_plans() {
        let g = chain(8);
        assert_eq!(validate_full_plan(&g), Vec::<String>::new());
        let mut changed = vec![false; g.n_gates()];
        changed[5] = true;
        assert_eq!(validate_cone_plan(&g, &changed), Vec::<String>::new());
        // An all-false changed set yields an empty (and vacuously sound)
        // cone plan rather than an error.
        assert_eq!(
            validate_cone_plan(&g, &vec![false; g.n_gates()]),
            Vec::<String>::new()
        );
    }

    #[test]
    fn wrapper_reports_bad_changed_length_instead_of_panicking() {
        let g = chain(4);
        let defects = validate_cone_plan(&g, &[true]);
        assert_eq!(defects.len(), 1);
        assert!(defects[0].contains("changed-gate flags"), "{defects:?}");
    }
}
