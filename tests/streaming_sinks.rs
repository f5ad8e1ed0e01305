//! Streaming-sink equivalence: VCD and SAIF written *during* the run
//! (bounded memory, via [`VcdSink`]/[`SaifSink`] over the raw Fig. 3
//! device encoding) must be bit-identical to the post-hoc whole-document
//! writers fed from [`SimResult::waveform`] — across serial, segmented
//! and multi-GPU runs, including quiet signals and `INIT_ONE_MARKER`
//! windows — and the VCD sink's peak buffering must scale with one
//! window, not the run. A sink that panics, or a window too big for the
//! arena, fails its run with a typed error and leaves the session as good
//! as a fresh one.

use std::sync::Arc;

use gatspi_core::{
    CoreError, RunOptions, SaifSink, Session, SimConfig, SimResult, VcdSink, WaveformSink,
    WindowInfo,
};
use gatspi_gpu::{DeviceSpec, MultiGpu};
use gatspi_graph::{CircuitGraph, GraphOptions, SignalId};
use gatspi_netlist::{CellLibrary, NetlistBuilder};
use gatspi_wave::saif::SaifDocument;
use gatspi_wave::{vcd, Waveform, INIT_ONE_MARKER};
use gatspi_workloads::circuits::{random_logic, RandomLogicConfig};
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};
use gatspi_workloads::suite::table2_suite;

/// Wide random logic with SDF delays (multi-gate levels, MSI activity).
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

/// Parses the streamed VCD and asserts every signal round-trips
/// bit-identical to the post-hoc stitched waveform (`result` must have
/// spill enabled). Declared-but-undumped signals parse as constant 0,
/// which is exactly what `waveform()` returns for floating signals.
fn assert_vcd_matches(graph: &CircuitGraph, result: &SimResult, text: &str) {
    let doc = vcd::parse(text).unwrap();
    for s in 0..graph.n_signals() {
        let name = graph.signal_name(SignalId(s as u32));
        assert_eq!(
            doc.signals[name],
            result.waveform(s).unwrap(),
            "signal {name} diverged between streamed VCD and post-hoc waveform"
        );
    }
}

/// The whole-document SAIF built from the run's stitched waveforms — the
/// reference the streaming accumulator must equal exactly.
fn posthoc_saif(graph: &CircuitGraph, result: &SimResult, duration: i32) -> SaifDocument {
    let named: Vec<(String, Waveform)> = (0..graph.n_signals())
        .filter(|&s| {
            let sid = SignalId(s as u32);
            graph.primary_inputs().contains(&sid) || graph.driver(sid).is_some()
        })
        .map(|s| {
            let sid = SignalId(s as u32);
            (
                graph.signal_name(sid).to_string(),
                result.waveform(s).unwrap(),
            )
        })
        .collect();
    SaifDocument::from_waveforms(
        graph.name(),
        duration,
        named.iter().map(|(n, w)| (n.as_str(), w)),
    )
}

#[test]
fn serial_streaming_vcd_and_saif_match_posthoc() {
    let graph = wide_graph(7);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.4, 11),
    );
    let duration = 16 * 400;
    let session = Session::new(
        Arc::clone(&graph),
        SimConfig::small()
            .with_cycle_parallelism(8)
            .with_window_align(400),
    );
    let (result, bytes) = session
        .run_to_vcd(
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
            Vec::new(),
        )
        .unwrap();
    let text = String::from_utf8(bytes).unwrap();
    assert_vcd_matches(&graph, &result, &text);

    let (r2, saif) = session
        .run_to_saif(&stimuli, duration, &RunOptions::default())
        .unwrap();
    assert_eq!(
        saif,
        posthoc_saif(&graph, &result, duration),
        "streaming SAIF != post-hoc from_waveforms"
    );
    // And the output-path SAIF equals the kernel-side accumulation.
    assert_eq!(saif, r2.saif, "streaming SAIF != engine SAIF");
}

/// A filtered sink listing its signals out of order hands the writer
/// each window's calls out of signal order; the VCD must still be the
/// whole-document writer's, byte for byte.
#[test]
fn permuted_filtered_vcd_is_byte_identical_to_the_document_writer() {
    let graph = wide_graph(21);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(12, 400, 0.5, 3),
    );
    let duration = 12 * 400;
    let session = Session::new(
        Arc::clone(&graph),
        SimConfig::small()
            .with_cycle_parallelism(6)
            .with_window_align(400),
    );
    // Every stored signal, odd ones descending after even ones ascending.
    let stored = |&s: &usize| {
        let sid = SignalId(s as u32);
        graph.primary_inputs().contains(&sid) || graph.driver(sid).is_some()
    };
    let (even, odd): (Vec<usize>, Vec<usize>) = (0..graph.n_signals())
        .filter(stored)
        .partition(|s| s % 2 == 0);
    let listed: Vec<(usize, &str)> = even
        .into_iter()
        .chain(odd.into_iter().rev())
        .map(|s| (s, graph.signal_name(SignalId(s as u32))))
        .collect();
    let mut sink = VcdSink::filtered(
        Vec::new(),
        graph.name(),
        graph.n_signals(),
        &listed,
        vcd::DEFAULT_TIMESCALE,
    )
    .unwrap();
    let result = session
        .run_streaming(
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
            &mut sink,
        )
        .unwrap();
    let streamed = String::from_utf8(sink.finish().unwrap()).unwrap();
    let waves: Vec<Waveform> = listed
        .iter()
        .map(|&(s, _)| result.waveform(s).unwrap())
        .collect();
    let whole = vcd::write(graph.name(), listed.iter().map(|&(_, n)| n).zip(&waves));
    assert_eq!(streamed, whole);
}

#[test]
fn segmented_streaming_matches_posthoc() {
    let graph = wide_graph(13);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.5, 23),
    );
    let duration = 16 * 400;
    let session = Session::new(
        Arc::clone(&graph),
        SimConfig::small()
            .with_cycle_parallelism(8)
            .with_window_align(400),
    );
    let opts = RunOptions::default()
        .with_segment_windows(3)
        .with_waveform_spill();
    let (result, bytes) = session
        .run_to_vcd(&stimuli, duration, &opts, Vec::new())
        .unwrap();
    assert!(result.segments() > 1, "test must exercise segmentation");
    let text = String::from_utf8(bytes).unwrap();
    assert_vcd_matches(&graph, &result, &text);

    let (_, saif) = session.run_to_saif(&stimuli, duration, &opts).unwrap();
    assert_eq!(saif, posthoc_saif(&graph, &result, duration));
}

#[test]
fn multi_gpu_streaming_matches_posthoc() {
    let graph = wide_graph(29);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.35, 31),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400);
    let fleet = |n| {
        let gpus = MultiGpu::new(DeviceSpec::v100(), n, 1 << 18);
        Session::with_devices(Arc::clone(&graph), cfg.clone(), gpus.devices().to_vec())
    };
    let opts = RunOptions::default().with_waveform_spill();
    let (multi, bytes) = fleet(3)
        .run_to_vcd(&stimuli, duration, &opts, Vec::new())
        .unwrap();
    let text = String::from_utf8(bytes).unwrap();
    assert_vcd_matches(&graph, &multi, &text);

    let (_, saif) = fleet(3)
        .run_to_saif(&stimuli, duration, &RunOptions::default())
        .unwrap();
    assert_eq!(saif, posthoc_saif(&graph, &multi, duration));

    // The multi-GPU streamed VCD also equals a single-device run's.
    let (single, single_bytes) = Session::new(Arc::clone(&graph), cfg)
        .run_to_vcd(&stimuli, duration, &opts, Vec::new())
        .unwrap();
    assert_eq!(
        text,
        String::from_utf8(single_bytes).unwrap(),
        "multi-GPU and single-device streamed VCD must be byte-identical"
    );
    assert!(single.saif.diff(&multi.saif).is_empty());
}

/// A fleet whose shards overflow their arenas halves its ranges mid-round
/// and runs the round's later windows again. Without a spill, the caller's
/// sink still sees every `(window, signal)` exactly once, windows
/// ascending, and the streamed VCD equals a roomy single device's.
#[test]
fn fleet_oom_streams_in_window_order() {
    let b = table2_suite()[0].build_at_scale(0.15);
    let cfg = |parallelism, memory_words| SimConfig {
        memory_words,
        ..SimConfig::small()
            .with_cycle_parallelism(parallelism)
            .with_window_align(b.cycle_time)
    };
    let fleet = || {
        let gpus = MultiGpu::new(DeviceSpec::v100(), 3, 14_000);
        Session::with_devices(
            Arc::clone(&b.graph),
            cfg(8, 14_000),
            gpus.devices().to_vec(),
        )
    };
    // One device cut into the fleet's windows, with room for all of them.
    let roomy = || Session::new(Arc::clone(&b.graph), cfg(24, 1 << 22));
    let opts = RunOptions::default();

    let mut streamed = Recorder::default();
    let r = fleet()
        .run_streaming(&b.stimuli, b.duration, &opts, &mut streamed)
        .unwrap();
    assert!(
        r.app_profile.oom_retries > 0,
        "a shard overflowed its arena"
    );
    assert!(
        streamed.calls.windows(2).all(|p| p[0] < p[1]),
        "windows reached the sink out of order or twice"
    );
    let mut expected = Recorder::default();
    roomy()
        .run_streaming(&b.stimuli, b.duration, &opts, &mut expected)
        .unwrap();
    // The windows reach into the third device's first range.
    assert!(expected.calls.last().is_some_and(|c| c.0 > 16));
    assert!(
        streamed.calls == expected.calls,
        "the fleet streamed {} (window, signal) calls, one device {}",
        streamed.calls.len(),
        expected.calls.len()
    );

    let (_, fleet_vcd) = fleet()
        .run_to_vcd(&b.stimuli, b.duration, &opts, Vec::new())
        .unwrap();
    let (_, single_vcd) = roomy()
        .run_to_vcd(&b.stimuli, b.duration, &opts, Vec::new())
        .unwrap();
    assert!(
        fleet_vcd == single_vcd,
        "fleet and single-device VCD differ"
    );
}

/// Quiet signals (never toggle) and signals that are high at window
/// starts (`INIT_ONE_MARKER` device windows) must stream correctly: no
/// spurious join changes, full-duration T1 for constant-high nets.
#[test]
fn quiet_and_init_one_marker_signals_roundtrip() {
    let mut b = NetlistBuilder::new("quiet", CellLibrary::industry_mini());
    let hi = b.add_input("hi").unwrap();
    let lo = b.add_input("lo").unwrap();
    let a = b.add_input("a").unwrap();
    let mut prev = a;
    for i in 0..6 {
        let net = b.add_net(&format!("n{i}")).unwrap();
        b.add_gate(&format!("u{i}"), "INV", &[prev], net).unwrap();
        prev = net;
    }
    let y = b.add_output("y").unwrap();
    b.add_gate("uy", "AND2", &[prev, hi], y).unwrap();
    let z = b.add_output("z").unwrap();
    b.add_gate("uz", "OR2", &[prev, lo], z).unwrap();
    let graph = Arc::new(
        CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap(),
    );

    let duration = 1600;
    let toggles: Vec<i32> = (1..30).map(|i| i * 50 + 7).collect();
    let stimuli = vec![
        Waveform::constant(true),               // hi: INIT_ONE windows throughout
        Waveform::constant(false),              // lo: quiet
        Waveform::from_toggles(true, &toggles), // a: starts high, busy
    ];
    let session = Session::new(
        Arc::clone(&graph),
        SimConfig::small()
            .with_cycle_parallelism(8)
            .with_window_align(200),
    );
    let (result, bytes) = session
        .run_to_vcd(
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
            Vec::new(),
        )
        .unwrap();
    // The constant-high input really is stored as INIT_ONE_MARKER windows.
    let raw = result.raw_window(hi.index(), 1).unwrap();
    assert_eq!(raw.first(), Some(&INIT_ONE_MARKER));

    let text = String::from_utf8(bytes).unwrap();
    assert_vcd_matches(&graph, &result, &text);
    assert_eq!(
        vcd::parse(&text).unwrap().signals["hi"],
        Waveform::constant(true)
    );

    let (_, saif) = session
        .run_to_saif(&stimuli, duration, &RunOptions::default())
        .unwrap();
    assert_eq!(saif, posthoc_saif(&graph, &result, duration));
    let hi_rec = &saif.nets["hi"];
    assert_eq!(hi_rec.tc, 0);
    assert_eq!(
        hi_rec.t1,
        i64::from(duration),
        "constant-high spans the run"
    );
    let lo_rec = &saif.nets["lo"];
    assert_eq!((lo_rec.tc, lo_rec.t0), (0, i64::from(duration)));
}

/// The VCD sink's peak buffering is one window's changes, not the whole
/// run's: with toggles spread uniformly over many windows, the peak must
/// stay near total/windows.
#[test]
fn vcd_sink_memory_bounded_by_one_window() {
    let mut b = NetlistBuilder::new("chain", CellLibrary::industry_mini());
    let mut prev = b.add_input("a").unwrap();
    for i in 0..30 {
        let net = b.add_net(&format!("n{i}")).unwrap();
        b.add_gate(&format!("u{i}"), "INV", &[prev], net).unwrap();
        prev = net;
    }
    b.mark_output(prev);
    let graph = Arc::new(
        CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap(),
    );

    // 320 toggles spread evenly across 16 windows of 400 ticks.
    let windows = 16usize;
    let toggles: Vec<i32> = (0..320).map(|i| i * 20 + 3).collect();
    let stimuli = vec![Waveform::from_toggles(false, &toggles)];
    let duration = 400 * windows as i32;
    let session = Session::new(
        Arc::clone(&graph),
        SimConfig::small()
            .with_cycle_parallelism(windows)
            .with_window_align(400),
    );
    let names: Vec<String> = (0..graph.n_signals())
        .map(|s| graph.signal_name(SignalId(s as u32)).to_string())
        .collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut sink = VcdSink::new(Vec::new(), graph.name(), &name_refs).unwrap();
    session
        .run_streaming(&stimuli, duration, &RunOptions::default(), &mut sink)
        .unwrap();
    let peak = sink.peak_window_changes();
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    let doc = vcd::parse(&text).unwrap();
    let total: usize = doc.signals.values().map(|w| w.toggle_count() + 1).sum();
    assert!(peak > 0 && total > 0);
    assert!(
        peak <= total.div_ceil(windows) * 2,
        "peak {peak} must scale with one of {windows} windows (total {total})"
    );
}

/// The drain reads a segment back one level region at a time, so its
/// transfer count follows the design's depth, not the number of waveforms
/// it stored — on a segmented spill run and on a streamed VCD run alike.
#[test]
fn drain_transfers_are_bounded_by_levels_per_segment() {
    let graph = wide_graph(21);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.5, 31),
    );
    let duration = 16 * 400;
    let session = Session::new(
        Arc::clone(&graph),
        SimConfig::small()
            .with_cycle_parallelism(8)
            .with_window_align(400),
    );
    let bound = |r: &SimResult| (r.segments() * (graph.n_levels() + 1)) as u64;

    let opts = RunOptions::default()
        .with_segment_windows(3)
        .with_waveform_spill();
    let spilled = session.run_with(&stimuli, duration, &opts).unwrap();
    assert!(spilled.segments() > 1, "test must exercise segmentation");
    let batches = spilled.app_profile.d2h_batches;
    assert!(
        (1..=bound(&spilled)).contains(&batches),
        "spill run: {batches} transfers for {} segments of {} levels",
        spilled.segments(),
        graph.n_levels()
    );

    let names: Vec<String> = (0..graph.n_signals())
        .map(|s| graph.signal_name(SignalId(s as u32)).to_string())
        .collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut sink = VcdSink::new(Vec::new(), graph.name(), &name_refs).unwrap();
    let streamed = session
        .run_streaming(&stimuli, duration, &RunOptions::default(), &mut sink)
        .unwrap();
    let batches = streamed.app_profile.d2h_batches;
    assert!(
        (1..=bound(&streamed)).contains(&batches),
        "streamed run: {batches} transfers for {} segments of {} levels",
        streamed.segments(),
        graph.n_levels()
    );
}

/// Writer failures mid-run surface as `CoreError::Io` from the
/// convenience entry point rather than disappearing.
#[test]
fn run_to_vcd_surfaces_writer_errors() {
    #[derive(Debug)]
    struct FailAfterHeader {
        writes: usize,
    }
    impl std::io::Write for FailAfterHeader {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            if self.writes > 1 {
                Err(std::io::Error::other("disk full"))
            } else {
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let graph = wide_graph(3);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(8, 400, 0.5, 5),
    );
    let session = Session::new(Arc::clone(&graph), SimConfig::small());
    let err = session
        .run_to_vcd(
            &stimuli,
            8 * 400,
            &RunOptions::default().with_segment_windows(2),
            FailAfterHeader { writes: 0 },
        )
        .unwrap_err();
    assert!(matches!(err, CoreError::Io { .. }), "got {err:?}");
}

/// A `SaifSink` built with names for only some signals skips the others,
/// as `VcdSink` does: the run succeeds and the document is the engine's
/// SAIF restricted to the named nets.
#[test]
fn saif_sink_with_partial_names_skips_unnamed_signals() {
    let graph = wide_graph(7);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.4, 11),
    );
    let duration = 16 * 400;
    let session = Session::new(
        Arc::clone(&graph),
        SimConfig::small()
            .with_cycle_parallelism(8)
            .with_window_align(400),
    );
    let names: Vec<String> = (0..graph.n_signals() / 2)
        .map(|s| graph.signal_name(SignalId(s as u32)).to_string())
        .collect();
    let mut sink = SaifSink::new(graph.name(), names.clone());
    let result = session
        .run_streaming(
            &stimuli,
            duration,
            &RunOptions::default().with_segment_windows(3),
            &mut sink,
        )
        .expect("a partial name list must not fault the run");
    let mut expected = result.saif.clone();
    expected.nets.retain(|net, _| names.contains(net));
    assert!(!expected.nets.is_empty());
    assert_eq!(sink.finish(duration), expected);
}

/// The fault-isolation workload: 220-gate random logic with SDF delays
/// and 12 cycles of 400 ticks, cut into 4 windows per device.
fn isolation_workload() -> (Arc<CircuitGraph>, Vec<Waveform>, i32, SimConfig) {
    let netlist = random_logic(&RandomLogicConfig {
        gates: 220,
        inputs: 12,
        depth: 5,
        output_fraction: 0.15,
        seed: 2,
    });
    let sdf = attach_sdf(
        &netlist,
        &SdfGenConfig {
            seed: 2 ^ 0xBEEF,
            ..SdfGenConfig::default()
        },
    );
    let graph =
        Arc::new(CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap());
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(12, 400, 0.4, 9 ^ 0x55),
    );
    let config = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400);
    (graph, stimuli, 12 * 400, config)
}

/// Records every `(window, signal)` call it completes; with `trip_after`
/// set to `n` it panics once, on call `n + 1`.
#[derive(Default)]
struct Recorder {
    calls: Vec<(usize, usize)>,
    trip_after: Option<usize>,
}

impl WaveformSink for Recorder {
    fn waveform(&mut self, signal: usize, info: &WindowInfo, _raw: &[i32]) {
        if self.trip_after == Some(self.calls.len()) {
            self.trip_after = None;
            panic!("recorder tripped after {} calls", self.calls.len());
        }
        self.calls.push((info.window, signal));
    }
}

/// A sink that panics partway through a fleet run fails that run — it is
/// not run again on another device, so no window reaches the sink twice —
/// and the session's next run streams exactly what a fresh session's does.
#[test]
fn fleet_sink_panic_fails_the_run_without_redelivery() {
    let (graph, stimuli, duration, config) = isolation_workload();
    let fleet = || {
        let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 18);
        Session::with_devices(Arc::clone(&graph), config.clone(), gpus.devices().to_vec())
    };
    let opts = RunOptions::default();
    let session = fleet();
    let mut tripped = Recorder {
        trip_after: Some(5),
        ..Recorder::default()
    };
    match session.run_streaming(&stimuli, duration, &opts, &mut tripped) {
        Err(CoreError::DeviceFault { detail, .. }) => {
            assert!(
                detail.contains("recorder tripped after 5 calls"),
                "{detail}"
            );
        }
        other => panic!("expected a device fault, got {other:?}"),
    }
    assert_eq!(tripped.calls.len(), 5, "a window reached the sink twice");

    let mut after = Recorder::default();
    session
        .run_streaming(&stimuli, duration, &opts, &mut after)
        .unwrap();
    let mut fresh = Recorder::default();
    fleet()
        .run_streaming(&stimuli, duration, &opts, &mut fresh)
        .unwrap();
    assert!(!fresh.calls.is_empty());
    assert_eq!(
        after.calls, fresh.calls,
        "the failed run poisoned the session"
    );
}

/// A caller-supplied streaming sink that panics mid-run fails that run
/// with a structured error carrying the panic text — caught at the drain
/// boundary, not aborting the process — and the session's next VCD and
/// SAIF are byte-identical to a fresh session's.
#[test]
fn panicking_user_sink_fails_the_run_not_the_process() {
    struct Grenade;
    impl WaveformSink for Grenade {
        fn waveform(&mut self, _signal: usize, _info: &WindowInfo, _raw: &[i32]) {
            panic!("user sink exploded");
        }
    }
    let (graph, stimuli, duration, config) = isolation_workload();
    let session = Session::new(Arc::clone(&graph), config.clone());
    match session.run_streaming(&stimuli, duration, &RunOptions::default(), &mut Grenade) {
        Err(CoreError::DeviceFault { device: 0, detail }) => {
            assert_eq!(detail, "user sink exploded");
        }
        other => panic!("expected an isolated device fault, got {other:?}"),
    }

    let opts = RunOptions::default()
        .with_waveform_spill()
        .with_segment_windows(2);
    let (after, after_vcd) = session
        .run_to_vcd(&stimuli, duration, &opts, Vec::new())
        .unwrap();
    let (fresh, fresh_vcd) = Session::new(graph, config)
        .run_to_vcd(&stimuli, duration, &opts, Vec::new())
        .unwrap();
    assert_eq!(after_vcd, fresh_vcd, "the failed run changed the VCD");
    assert_eq!(
        after.saif.write(),
        fresh.saif.write(),
        "the failed run changed the SAIF"
    );
}

/// A window too big for the arena even alone fails its run with
/// `OutOfMemory`, and a follow-up run that fits succeeds on the same
/// session with a fresh session's SAIF.
#[test]
fn hard_oom_fails_the_run_not_the_session() {
    let mut b = NetlistBuilder::new("inv", CellLibrary::industry_mini());
    let a = b.add_input("a").unwrap();
    let y = b.add_output("y").unwrap();
    b.add_gate("u0", "INV", &[a], y).unwrap();
    let graph = Arc::new(
        CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap(),
    );
    let config = SimConfig {
        memory_words: 8,
        ..SimConfig::small()
    };
    let session = Session::new(Arc::clone(&graph), config.clone());
    let busy = vec![Waveform::from_toggles(false, &(1..100).collect::<Vec<_>>())];
    let err = session.run(&busy, 200).unwrap_err();
    assert!(matches!(err, CoreError::OutOfMemory { .. }), "got {err:?}");

    let quiet = vec![Waveform::from_toggles(false, &[10])];
    let after = session.run(&quiet, 200).unwrap();
    let fresh = Session::new(graph, config).run(&quiet, 200).unwrap();
    assert_eq!(after.saif.write(), fresh.saif.write());
    assert_eq!(after.saif.total_toggles(), 2);
}
