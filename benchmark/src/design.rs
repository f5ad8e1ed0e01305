//! Inputs generated from `--seed`.
//!
//! A workload is a *design* with a testbench. The seed redraws the design's
//! delays (SDF) and its testbench (stimulus); the netlist keeps its
//! topology — the suite's committed generator seed, or none at all for the
//! MAC array. Redrawing the topology as well moved toggles per run by
//! ±12 % between seeds on Design D — a different workload per seed rather
//! than another sample of one. Seed 0 is exactly the suite's row, or
//! exactly `glitch_flow.rs`'s design.

use gatspi_netlist::Netlist;
use gatspi_sdf::SdfFile;
use gatspi_wave::{SimTime, Waveform};
use gatspi_workloads::circuits::mac_datapath;
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};
use gatspi_workloads::suite::{table2_suite, CYCLE_TIME};

/// A generated design and its testbench.
pub struct Design {
    /// Gate-level netlist.
    pub netlist: Netlist,
    /// Delay annotation.
    pub sdf: SdfFile,
    /// One waveform per primary input.
    pub stimuli: Vec<Waveform>,
    /// Testbench length in ticks.
    pub duration: SimTime,
}

/// Row `row` of `table2_suite()` at `scale`, built by the steps of
/// `BenchmarkDef::build_at_scale` with `seed` XORed into the SDF and
/// stimulus seeds.
pub fn suite_row(row: usize, seed: u64, scale: f64) -> Design {
    let def = table2_suite()[row].clone();
    let netlist = def.netlist_at_scale(scale);
    let sdf = attach_sdf(
        &netlist,
        &SdfGenConfig {
            seed: def.seed ^ 0x5DF ^ seed,
            ..SdfGenConfig::default()
        },
    );
    let stimulus = StimulusConfig {
        cycles: ((def.cycles as f64 * scale).round() as usize).max(4),
        cycle_time: CYCLE_TIME,
        clk2q: 1,
        kind: def.kind,
        seed: def.seed ^ 0x57 ^ seed,
    };
    let stimuli = generate(netlist.primary_inputs().len(), &stimulus);
    Design {
        netlist,
        sdf,
        stimuli,
        duration: stimulus.duration(),
    }
}

/// The design of `crates/bench/benches/glitch_flow.rs` at `scale`:
/// `mac_datapath(8, 20)`, default SDF generation, 200 random cycles at
/// p = 0.35 from stimulus seed 99 — with `seed` XORed into the SDF and
/// stimulus seeds.
pub fn glitch_flow_design(seed: u64, scale: f64) -> Design {
    let lanes = ((20.0 * scale).round() as usize).max(2);
    let netlist = mac_datapath(8, lanes);
    let defaults = SdfGenConfig::default();
    let sdf = attach_sdf(
        &netlist,
        &SdfGenConfig {
            seed: defaults.seed ^ seed,
            ..defaults
        },
    );
    let cycles = ((200.0 * scale) as usize).max(20);
    let stimulus = StimulusConfig::random(cycles, CYCLE_TIME, 0.35, 99 ^ seed);
    let stimuli = generate(netlist.primary_inputs().len(), &stimulus);
    Design {
        netlist,
        sdf,
        stimuli,
        duration: stimulus.duration(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_suites_own_row() {
        let ours = suite_row(8, 0, 0.05);
        let suite = table2_suite()[8].build_at_scale(0.05);
        assert_eq!(ours.stimuli, suite.stimuli);
        assert_eq!(ours.duration, suite.duration);
        assert_eq!(ours.netlist.gate_count(), suite.graph.n_gates());
    }

    #[test]
    fn a_seed_redraws_delays_and_testbench_but_not_topology() {
        let (a, b) = (suite_row(8, 0, 0.05), suite_row(8, 1, 0.05));
        assert_eq!(
            gatspi_netlist::verilog::write(&a.netlist),
            gatspi_netlist::verilog::write(&b.netlist)
        );
        assert_ne!(a.sdf.write(), b.sdf.write());
        assert_ne!(a.stimuli, b.stimuli);
    }
}
