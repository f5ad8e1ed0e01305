//! Level-loop equivalence: the engine's one execution path — folded
//! store-pass publication, slab-partitioned scratch columns, each level
//! published by the thread that finished it — must produce results
//! **bit-identical** to the event-driven reference across plain windowed
//! runs, segmented runs, streaming sinks, multi-GPU sharding (with and
//! without spill) and the pooled chase-the-cursor phase driver — on the
//! speculative store's hit path and, with the extent history poisoned, on
//! its overflow-repair path.

use std::sync::Arc;

use gatspi_core::{RunOptions, Session, SimConfig, SimResult, WaveformSink, WindowInfo};
use gatspi_gpu::{DeviceSpec, MultiGpu};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::{CellLibrary, NetlistBuilder};
use gatspi_refsim::{EventSimulator, RefConfig, RefResult};
use gatspi_wave::{split_raw, SimTime, Waveform, EOW};
use gatspi_workloads::circuits::{random_logic, RandomLogicConfig};
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};
use proptest::prelude::*;

/// Deep, narrow chain: thousands of one-gate levels exercise the fused
/// (phased-launch) path, published at its store/repair phase boundaries.
fn deep_chain(depth: usize) -> Arc<CircuitGraph> {
    let mut b = NetlistBuilder::new("deep", CellLibrary::industry_mini());
    let mut prev = b.add_input("a").unwrap();
    for i in 0..depth {
        let net = b.add_net(&format!("n{i}")).unwrap();
        b.add_gate(&format!("u{i}"), "INV", &[prev], net).unwrap();
        prev = net;
    }
    b.mark_output(prev);
    Arc::new(CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap())
}

/// Wide random logic with SDF delays: multi-gate levels exercise the
/// classic one-launch-per-level path, published after the launch join.
fn wide_graph(seed: u64) -> Arc<CircuitGraph> {
    let netlist = random_logic(&RandomLogicConfig {
        gates: 300,
        inputs: 16,
        depth: 5,
        output_fraction: 0.1,
        seed,
    });
    let sdf = attach_sdf(
        &netlist,
        &SdfGenConfig {
            seed: seed ^ 0xBEEF,
            ..SdfGenConfig::default()
        },
    );
    Arc::new(CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap())
}

fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert!(
        a.saif.diff(&b.saif).is_empty(),
        "{what}: SAIF diverged between the two runs"
    );
    assert_eq!(
        a.toggle_counts_slice(),
        b.toggle_counts_slice(),
        "{what}: toggle counts diverged"
    );
}

/// The event-driven reference run, with every signal's waveform recorded.
fn refsim(graph: &CircuitGraph, stimuli: &[Waveform], duration: SimTime) -> RefResult {
    EventSimulator::new(graph, RefConfig::default())
        .run(stimuli, duration)
        .unwrap()
}

/// The event-driven reference under the engine's windowed semantics, for
/// designs whose logic has not settled where the windows cut (a toggle
/// still in flight down a deep chain is lost at the cut, by design):
/// every window simulated on its own from the stimulus cut to it,
/// activity summed, waveforms stitched with toggles past a window's end
/// dropped.
fn windowed_refsim(
    graph: &CircuitGraph,
    stimuli: &[Waveform],
    windows: &[(SimTime, SimTime)],
) -> RefResult {
    let mut acc: Option<RefResult> = None;
    for &(start, end) in windows {
        let cut: Vec<Waveform> = stimuli.iter().map(|w| w.window(start, end)).collect();
        let mut r = refsim(graph, &cut, end - start);
        for w in r.waveforms.as_mut().expect("recorded") {
            *w = w.window(0, end - start);
        }
        let Some(acc) = acc.as_mut() else {
            acc = Some(r);
            continue;
        };
        acc.saif.duration += r.saif.duration;
        for (name, rec) in &r.saif.nets {
            let sum = acc.saif.nets.get_mut(name).expect("same net set");
            sum.t0 += rec.t0;
            sum.t1 += rec.t1;
            sum.tc += rec.tc;
        }
        for (sum, n) in acc.toggle_counts.iter_mut().zip(&r.toggle_counts) {
            *sum += n;
        }
        let waves = acc.waveforms.as_mut().expect("recorded");
        for (whole, w) in waves
            .iter_mut()
            .zip(r.waveforms.as_ref().expect("recorded"))
        {
            *whole = whole.concat(w, start);
        }
    }
    acc.expect("at least one window")
}

fn assert_matches_refsim(ours: &SimResult, r: &RefResult, what: &str) {
    assert!(
        ours.saif.diff(&r.saif).is_empty(),
        "{what}: SAIF diverged from refsim"
    );
    assert_eq!(
        ours.toggle_counts_slice(),
        &r.toggle_counts[..],
        "{what}: toggle counts diverged from refsim"
    );
}

/// Every signal's full waveform, edge for edge (`ours` must be spilled or
/// still device-backed).
fn assert_waveforms_match_refsim(ours: &SimResult, r: &RefResult, what: &str) {
    let ref_waves = r.waveforms.as_ref().expect("recorded");
    for (s, expected) in ref_waves.iter().enumerate() {
        assert_eq!(&ours.waveform(s).unwrap(), expected, "{what}: signal {s}");
    }
}

#[test]
fn deep_fused_chain_serial_matches_overlapped() {
    let graph = deep_chain(600);
    let toggles: Vec<i32> = (1..12).map(|i| i * 700).collect();
    let stim = vec![Waveform::from_toggles(false, &toggles)];
    let duration = 10_000;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(100);
    let ours = Session::new(Arc::clone(&graph), cfg)
        .run_with(
            &stim,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .unwrap();
    // 10 000 ticks over 4 slots aligned to 100: four 2 500-tick windows,
    // cut while toggles are still travelling down the 600-gate chain.
    let windows: Vec<_> = (0..4).map(|k| (k * 2500, (k + 1) * 2500)).collect();
    let r = windowed_refsim(&graph, &stim, &windows);
    assert_matches_refsim(&ours, &r, "deep fused chain");
    // Bit-identical waveforms too, via the durable spill copies.
    assert_waveforms_match_refsim(&ours, &r, "deep fused chain");
    assert!(
        ours.app_profile.speculative_hit_rate > 0.0,
        "the speculative path must actually have run"
    );
}

#[test]
fn wide_levels_serial_matches_overlapped_and_refsim() {
    let graph = wide_graph(7);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(24, 400, 0.4, 11),
    );
    let duration = 24 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400);
    let ours = Session::new(Arc::clone(&graph), cfg)
        .run(&stimuli, duration)
        .unwrap();
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&ours, &r, "wide levels");
}

#[test]
fn segmented_run_serial_matches_overlapped() {
    let graph = deep_chain(40);
    let toggles: Vec<i32> = (1..150).map(|i| i * 10 + 5).collect();
    let stim = vec![Waveform::from_toggles(false, &toggles)];
    let cfg = SimConfig::small()
        .with_cycle_parallelism(16)
        .with_window_align(10);
    let ours = Session::new(Arc::clone(&graph), cfg)
        .run_with(
            &stim,
            1500,
            &RunOptions::default()
                .with_segment_windows(4)
                .with_waveform_spill(),
        )
        .unwrap();
    assert!(ours.segments() > 1, "test must exercise segmentation");
    // 1 500 ticks over 16 slots aligned to 10: fifteen 100-tick windows.
    let windows: Vec<_> = (0..15).map(|k| (k * 100, (k + 1) * 100)).collect();
    let r = windowed_refsim(&graph, &stim, &windows);
    assert_matches_refsim(&ours, &r, "segmented run");
    assert_waveforms_match_refsim(&ours, &r, "segmented run, across segments");
}

/// Records every sink delivery so two runs can be compared call-for-call
/// and one run window-for-window against refsim.
#[derive(Default)]
struct Recorder {
    calls: Vec<(usize, WindowInfo, Vec<i32>)>,
}

impl WaveformSink for Recorder {
    fn waveform(&mut self, signal: usize, info: &WindowInfo, raw: &[i32]) {
        self.calls.push((signal, *info, raw.to_vec()));
    }
}

#[test]
fn streaming_sink_serial_matches_overlapped() {
    let graph = wide_graph(13);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.5, 23),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400);
    let mut sink = Recorder::default();
    let ours = Session::new(Arc::clone(&graph), cfg)
        .run_streaming(
            &stimuli,
            duration,
            &RunOptions::default().with_segment_windows(3),
            &mut sink,
        )
        .unwrap();
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&ours, &r, "streaming run");
    assert!(!sink.calls.is_empty());
    // Every delivery is refsim's waveform of that signal cut to that
    // window: same value at the window start, same toggles inside it
    // (spillover past the window end is the consumer's to clip).
    let ref_waves = r.waveforms.as_ref().expect("recorded");
    for (signal, info, raw) in &sink.calls {
        let (initial, tail) = split_raw(raw);
        let toggles: Vec<SimTime> = tail
            .iter()
            .copied()
            .take_while(|&t| t != EOW && t < info.end - info.start)
            .collect();
        assert_eq!(
            Waveform::from_toggles(initial, &toggles),
            ref_waves[*signal].window(info.start, info.end),
            "signal {signal}, window {}",
            info.window
        );
    }
}

/// A fused group wide enough to engage the pooled phase driver (widest
/// phase ≥ the device's inline threshold, so the chase-the-cursor worker
/// protocol — not the serial fast path — runs the phases): the whole
/// design forced into one phased launch by a large fuse threshold, so
/// thousand-thread levels are published by the launch's leader worker at
/// its phase boundaries. Must match the event-driven reference, including
/// every waveform via the durable spill copies.
#[test]
fn wide_fused_group_pooled_driver_matches_serial_and_refsim() {
    let netlist = random_logic(&RandomLogicConfig {
        gates: 3000,
        inputs: 32,
        depth: 4,
        output_fraction: 0.1,
        seed: 91,
    });
    let graph = Arc::new(CircuitGraph::build(&netlist, None, &GraphOptions::default()).unwrap());
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(8, 400, 0.4, 17),
    );
    let duration = 8 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400)
        .with_fuse_threshold(1 << 20);
    // An explicit 4-worker device: the pooled driver (and the parallel
    // spill drain) must engage even when the test host has few cores.
    let device = Arc::new(gatspi_gpu::Device::with_workers(
        cfg.device.clone(),
        cfg.memory_words,
        4,
    ));
    let ours = Session::with_device(Arc::clone(&graph), cfg, device)
        .run_with(
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .unwrap();
    assert_eq!(
        ours.app_profile.launches, ours.app_profile.fused_launches,
        "every launch must be a fused phased launch"
    );
    assert!(ours.app_profile.fused_launches >= 1);
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&ours, &r, "wide fused group");
    assert_waveforms_match_refsim(&ours, &r, "wide fused group");
}

#[test]
fn multi_gpu_serial_matches_overlapped() {
    let graph = wide_graph(29);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.35, 31),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400);
    let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 18);
    let ours = Session::new(Arc::clone(&graph), cfg)
        .run_multi_gpu(&gpus, &stimuli, duration)
        .unwrap();
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&ours, &r, "multi-GPU run");
}

/// Multi-GPU runs with waveform spill: each shard's batch is routed
/// through the spill sink and the windows merge in time order, so
/// `waveform()` works on multi-GPU results and matches a single-device
/// spilled run — and the event-driven reference — bit for bit.
#[test]
fn multi_gpu_spill_extracts_waveforms() {
    let graph = wide_graph(43);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.35, 57),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400);
    // The single-device reference drains through an explicit 4-worker
    // device, so the parallel drain path is compared against the
    // multi-GPU shards' (single-worker) serial drains.
    let single_cfg = cfg.clone().with_cycle_parallelism(8);
    let single_dev = Arc::new(gatspi_gpu::Device::with_workers(
        single_cfg.device.clone(),
        single_cfg.memory_words,
        4,
    ));
    let single = Session::with_device(Arc::clone(&graph), single_cfg, single_dev)
        .run_with(
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .unwrap();
    let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 18);
    let multi = Session::new(Arc::clone(&graph), cfg)
        .run_multi_gpu_with(
            &gpus,
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .unwrap();
    assert!(multi.app_profile.d2h_bytes > 0, "spill read waveforms back");
    assert!(multi.app_profile.d2h_batches > 0);
    assert!(multi.app_profile.readback_seconds > 0.0);
    for s in 0..graph.n_signals() {
        assert_eq!(
            multi.waveform(s).unwrap(),
            single.waveform(s).unwrap(),
            "signal {s}"
        );
    }
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&multi, &r, "multi-GPU spill");
    assert_waveforms_match_refsim(&multi, &r, "multi-GPU spill");
}

// --- The speculative store on scenarios of its own: unfused wide levels,
// a warm incremental rerun, and the overflow-repair path. (Its fused,
// segmented, streaming and multi-GPU runs are the tests above.)

#[test]
fn speculative_matches_two_pass_on_wide_classic_levels() {
    let graph = wide_graph(7);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(24, 400, 0.4, 11),
    );
    let duration = 24 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400)
        .with_fuse_threshold(0);
    let ours = Session::new(Arc::clone(&graph), cfg)
        .run(&stimuli, duration)
        .unwrap();
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&ours, &r, "wide classic levels");
    assert_eq!(
        ours.app_profile.launches as usize,
        graph.n_levels(),
        "a well-predicted single pass launches once per level"
    );
}

#[test]
fn speculative_matches_two_pass_on_incremental_rerun() {
    let graph = wide_graph(51);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.4, 41),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400);
    let changed = vec![5usize, 40];
    let sim = Session::new(Arc::clone(&graph), cfg);
    let opts = RunOptions::default().with_waveform_spill();
    // The full run populates the session's extent history; the cone
    // sub-plan seeds from it, so the delta run speculates warm.
    let full = sim.run_with(&stimuli, duration, &opts).unwrap();
    let delta = sim
        .run_incremental(&full, &changed, &stimuli, duration, &opts)
        .unwrap();
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&delta, &r, "incremental rerun");
    assert_waveforms_match_refsim(&delta, &r, "incremental rerun, after the delta run");
}

/// Poisoned extent history — a 2-word budget for every gate — forces an
/// overflow on essentially every toggling (gate, window) thread, so the
/// final output is produced almost entirely by the exact repair launches.
/// The result must still be bit-identical to the reference: repair alone
/// reproduces it.
#[test]
fn forced_overflow_repair_reproduces_two_pass_exactly() {
    let graph = wide_graph(67);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.5, 73),
    );
    let duration = 16 * 400;
    let r = refsim(&graph, &stimuli, duration);
    for fuse in [0usize, 4096] {
        let cfg = SimConfig::small()
            .with_cycle_parallelism(8)
            .with_window_align(400)
            .with_fuse_threshold(fuse);
        let sim = Session::new(Arc::clone(&graph), cfg);
        sim.seed_extent_history(2);
        let ours = sim
            .run_with(
                &stimuli,
                duration,
                &RunOptions::default().with_waveform_spill(),
            )
            .unwrap();
        assert!(
            ours.app_profile.overflow_repairs > 0,
            "fuse {fuse}: tiny seeded budgets must overflow"
        );
        assert_matches_refsim(&ours, &r, &format!("forced overflow, fuse {fuse}"));
        assert_waveforms_match_refsim(&ours, &r, &format!("fuse {fuse}, from repair"));
    }
}

/// A mispredicted run costs its repairs once: the overflowing threads feed
/// their true extents to the predictor, so the same stimulus run again on
/// the same session is all hits — one launch per level, no repair.
#[test]
fn overflow_heals_after_one_run() {
    let graph = wide_graph(7);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(24, 400, 0.4, 11),
    );
    let duration = 24 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400)
        .with_fuse_threshold(0);
    let sim = Session::new(Arc::clone(&graph), cfg);
    sim.seed_extent_history(2);
    let poisoned = sim.run(&stimuli, duration).unwrap();
    assert!(poisoned.app_profile.overflow_repairs > 0);
    assert!(poisoned.app_profile.launches as usize > graph.n_levels());
    sim.seed_extent_history(0);
    let healed = sim.run(&stimuli, duration).unwrap();
    assert_eq!(healed.app_profile.overflow_repairs, 0);
    assert_eq!(healed.app_profile.speculative_hit_rate, 1.0);
    assert_eq!(healed.app_profile.launches as usize, graph.n_levels());
    assert_bit_identical(&poisoned, &healed, "poisoned vs healed run");
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&healed, &r, "healed run");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Random design + random delays + random stimulus: the engine must
    /// stay bit-identical to the event-driven reference.
    #[test]
    fn pipelined_executor_bit_identical_on_random_designs(
        seed in 0u64..5000,
        gates in 30usize..180,
        depth in 3usize..9,
        toggle_prob in 0.05f64..0.9,
        parallelism in 1usize..6,
        fuse_sel in 0usize..3,
    ) {
        // Unfused / small fused groups / default fusion.
        let fuse = [0usize, 64, 4096][fuse_sel];
        let netlist = random_logic(&RandomLogicConfig {
            gates,
            inputs: 10,
            depth,
            output_fraction: 0.1,
            seed,
        });
        let sdf = attach_sdf(&netlist, &SdfGenConfig {
            seed: seed ^ 0xF00D,
            ..SdfGenConfig::default()
        });
        let graph = Arc::new(
            CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap(),
        );
        let cycle = 400;
        let cycles = 16usize;
        let stimuli = generate(
            graph.primary_inputs().len(),
            &StimulusConfig::random(cycles, cycle, toggle_prob, seed ^ 0x77),
        );
        let duration = cycle * cycles as i32;
        let cfg = SimConfig::small()
            .with_cycle_parallelism(parallelism)
            .with_window_align(cycle)
            .with_fuse_threshold(fuse);
        let ours = Session::new(Arc::clone(&graph), cfg)
            .run(&stimuli, duration)
            .unwrap();

        let r = EventSimulator::new(&graph, RefConfig {
            record_waveforms: false,
            ..RefConfig::default()
        })
        .run(&stimuli, duration)
        .unwrap();
        prop_assert!(ours.saif.diff(&r.saif).is_empty(),
            "engine run diverged from refsim");
        prop_assert_eq!(ours.toggle_counts_slice(), &r.toggle_counts[..]);
    }
}
