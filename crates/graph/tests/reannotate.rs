//! [`CircuitGraph::reannotate`] against its specification: after any edit
//! of some gates' IOPATH delays, re-annotating exactly those gates in place
//! must leave the graph equal to a full [`CircuitGraph::build`] on the
//! edited SDF — and a rejected edit must leave it untouched.

use gatspi_graph::{CircuitGraph, GraphError, GraphOptions, SdfIndex};
use gatspi_netlist::GateId;
use gatspi_sdf::{DelayTriple, EdgeSpec, IoPath};
use gatspi_workloads::circuits::{random_logic, RandomLogicConfig};
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn reannotated_equals_rebuilt(
        seed in 0u64..1 << 32,
        gates in 20usize..160,
        n_changed in 0usize..12,
        factor_tenths in 1u32..40,
    ) {
        let netlist = random_logic(&RandomLogicConfig {
            gates,
            inputs: 10,
            depth: 6,
            output_fraction: 0.1,
            seed,
        });
        let mut sdf = attach_sdf(&netlist, &SdfGenConfig {
            seed: seed ^ 0x5DF,
            ..SdfGenConfig::default()
        });
        let opts = GraphOptions::default();
        let mut graph = CircuitGraph::build(&netlist, Some(&sdf), &opts).unwrap();

        // A random subset (repeats allowed), scaled by 0.1x..4x.
        let changed: Vec<usize> = (0..n_changed)
            .map(|k| ((seed >> (k * 5)) as usize).wrapping_mul(31 + k) % graph.n_gates())
            .collect();
        let factor = f64::from(factor_tenths) / 10.0;
        for &g in &changed {
            let name = netlist.gate(GateId::from_index(g)).name();
            for cell in &mut sdf.cells {
                if cell.instance.as_deref() == Some(name) {
                    for p in &mut cell.iopaths {
                        for t in [&mut p.rise, &mut p.fall] {
                            let scale = |v: Option<f64>| v.map(|x| (x * factor).round());
                            (t.min, t.typ, t.max) = (scale(t.min), scale(t.typ), scale(t.max));
                        }
                    }
                }
            }
        }
        graph.reannotate(&netlist, &sdf, &SdfIndex::new(&sdf), &changed, &opts).unwrap();
        let rebuilt = CircuitGraph::build(&netlist, Some(&sdf), &opts).unwrap();
        prop_assert!(graph == rebuilt, "re-annotated graph differs from a rebuild");

        // An IOPATH naming a pin the cell does not have is rejected, and the
        // graph — including the gates listed before the bad one — stays put.
        let bad = changed.last().copied().unwrap_or(0);
        let bad_name = netlist.gate(GateId::from_index(bad)).name();
        for cell in &mut sdf.cells {
            for p in &mut cell.iopaths {
                p.rise = DelayTriple::single(77.0);
            }
            if cell.instance.as_deref() == Some(bad_name) {
                cell.iopaths.push(IoPath {
                    cond: None,
                    edge: EdgeSpec::Both,
                    input: "NO_SUCH_PIN".into(),
                    output: "Y".into(),
                    rise: DelayTriple::single(1.0),
                    fall: DelayTriple::single(1.0),
                });
            }
        }
        let mut listed = changed.clone();
        listed.push(bad);
        let err = graph.reannotate(&netlist, &sdf, &SdfIndex::new(&sdf), &listed, &opts);
        prop_assert!(matches!(err, Err(GraphError::SdfBinding { .. })), "{:?}", err);
        prop_assert!(graph == rebuilt, "failed reannotate modified the graph");
    }
}
