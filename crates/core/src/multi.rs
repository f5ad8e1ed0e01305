//! What a fleet adds to the session's one window loop
//! ([`Session::run_segments`]): the paper's cycle-parallel distribution
//! (§5, Fig. 6) runs a round's consecutive ranges on their devices side by
//! side. The loop settles the outcomes in window order.

use std::ops::Range;

use crate::session::{SegmentInputs, Session, WindowBatch};
use crate::Result;

impl Session {
    /// Runs one round of the window loop: every `(device, range)` entry
    /// executes as one segment on its device, reserving from the same
    /// extent `history` snapshot. A one-entry round — on a single device,
    /// every round — runs inline on the calling thread; a wider one spawns
    /// a thread per entry. Each thread catches its own device's panics, so
    /// an outcome is a finished batch or a structured error, with the
    /// extents the batch stored ([`Session::execute_segment`]), and none
    /// delivers anything. Outcomes come back in `round` order.
    pub(crate) fn execute_round(
        &self,
        round: &[(usize, Range<usize>)],
        inputs: &SegmentInputs<'_>,
        history: &[u32],
    ) -> Vec<(Result<WindowBatch>, Option<Vec<u32>>)> {
        let run = |(d, range): &(usize, Range<usize>)| {
            self.execute_segment(*d, inputs, history, range.clone())
        };
        if let [entry] = round {
            return vec![run(entry)];
        }
        let run = &run;
        std::thread::scope(|s| {
            let handles: Vec<_> = round
                .iter()
                .map(|entry| s.spawn(move || run(entry)))
                .collect();
            // Explicit joins: a panic that escapes a device thread (a bug —
            // the batch boundary catches panics) must surface with its
            // payload, not a generic scope message.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{CoreError, Session, SimConfig};
    use gatspi_gpu::{DeviceSpec, MultiGpu};
    use gatspi_graph::{CircuitGraph, GraphOptions};
    use gatspi_netlist::{CellLibrary, NetlistBuilder};
    use gatspi_wave::Waveform;
    use std::sync::Arc;

    fn graph() -> Arc<CircuitGraph> {
        let mut b = NetlistBuilder::new("m", CellLibrary::industry_mini());
        let a = b.add_input("a").unwrap();
        let c = b.add_input("b").unwrap();
        let n1 = b.add_net("n1").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate("u1", "XOR2", &[a, c], n1).unwrap();
        b.add_gate("u2", "INV", &[n1], y).unwrap();
        Arc::new(CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap())
    }

    fn fleet(g: &Arc<CircuitGraph>, cfg: SimConfig, n: usize, words: usize) -> Session {
        let gpus = MultiGpu::new(DeviceSpec::v100(), n, words);
        Session::with_devices(Arc::clone(g), cfg, gpus.devices().to_vec())
    }

    #[test]
    fn multi_gpu_matches_single_device() {
        let g = graph();
        let cfg = SimConfig::small()
            .with_cycle_parallelism(4)
            .with_window_align(100);
        let stimuli = vec![
            Waveform::from_toggles(false, &[150, 420, 650]),
            Waveform::from_toggles(true, &[310, 890]),
        ];
        let single = Session::new(Arc::clone(&g), cfg.clone())
            .run(&stimuli, 1000)
            .unwrap();
        let multi = fleet(&g, cfg, 2, 1 << 18).run(&stimuli, 1000).unwrap();
        assert!(single.saif.diff(&multi.saif).is_empty());
        assert_eq!(single.total_toggles(), multi.total_toggles());
    }

    #[test]
    fn multi_gpu_builds_schedule_once_for_even_shards() {
        let g = graph();
        // 4 windows/device × 2 devices, duration divisible: even shards,
        // one plan build for the entire multi-GPU run.
        let cfg = SimConfig::small()
            .with_cycle_parallelism(4)
            .with_window_align(100);
        let sim = fleet(&g, cfg, 2, 1 << 18);
        let stimuli = vec![
            Waveform::from_toggles(false, &[150, 420, 650]),
            Waveform::from_toggles(true, &[310]),
        ];
        let r = sim.run(&stimuli, 800).unwrap();
        assert_eq!(r.segments(), 2, "one 4-window range per device");
        let stats = sim.plan_cache_stats();
        assert_eq!(
            stats.misses, 1,
            "one LevelSchedule build shared across both shards"
        );
        // The run looks its plan up once, before the window loop.
        assert_eq!(stats.hits, 0, "neither shard looks the plan up again");
    }

    #[test]
    fn multi_gpu_stimulus_mismatch() {
        let g = graph();
        let sim = fleet(&g, SimConfig::small(), 2, 1 << 16);
        assert!(matches!(
            sim.run(&[], 100),
            Err(CoreError::StimulusMismatch { .. })
        ));
    }

    /// A session with no devices cannot run anything, and says so instead
    /// of panicking — on every run path.
    #[test]
    fn empty_fleet_is_a_config_error() {
        let g = graph();
        let sim = Session::with_devices(g, SimConfig::small(), Vec::new());
        let stimuli = vec![Waveform::constant(false), Waveform::constant(true)];
        assert!(matches!(
            sim.run(&stimuli, 100),
            Err(CoreError::BadConfig { .. })
        ));
        let vcd = sim.run_to_vcd(&stimuli, 100, &Default::default(), Vec::new());
        assert!(matches!(vcd, Err(CoreError::BadConfig { .. })));
    }
}
