//! Streaming-sink throughput: the cost of producing VCD/SAIF output
//! *during* the run (bounded memory) versus the post-hoc whole-document
//! writers over a spilled run. The run emits `BENCH_sink_throughput.json`
//! so successive PRs can compare measurements.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gatspi_core::{RunOptions, SaifSink, Session, SimConfig, VcdSink};
use gatspi_graph::{CircuitGraph, GraphOptions, SignalId};
use gatspi_wave::vcd;
use gatspi_workloads::circuits::{random_logic, RandomLogicConfig};
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};

struct Setup {
    session: Session,
    graph: Arc<CircuitGraph>,
    stimuli: Vec<gatspi_wave::Waveform>,
    duration: i32,
}

fn setup(gates: usize) -> Setup {
    let netlist = random_logic(&RandomLogicConfig {
        gates,
        inputs: 24,
        depth: 6,
        output_fraction: 0.1,
        seed: 0x51AB,
    });
    let sdf = attach_sdf(
        &netlist,
        &SdfGenConfig {
            seed: 0xD00D,
            ..SdfGenConfig::default()
        },
    );
    let graph =
        Arc::new(CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap());
    let cycles = 16usize;
    let cycle = 400i32;
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(cycles, cycle, 0.4, 0x99),
    );
    let session = Session::new(
        Arc::clone(&graph),
        SimConfig::small()
            .with_cycle_parallelism(8)
            .with_window_align(cycle),
    );
    Setup {
        session,
        graph,
        stimuli,
        duration: cycle * cycles as i32,
    }
}

fn bench_sinks(c: &mut Criterion) {
    let mut group = c.benchmark_group("sink_throughput");
    for gates in [500usize, 4000] {
        let s = setup(gates);
        let names: Vec<String> = (0..s.graph.n_signals())
            .map(|k| s.graph.signal_name(SignalId(k as u32)).to_string())
            .collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();

        // Baseline: the run alone, no output path at all.
        group.bench_with_input(BenchmarkId::new("run_only", gates), &gates, |b, _| {
            b.iter(|| {
                s.session
                    .run_with(&s.stimuli, s.duration, &RunOptions::default())
                    .unwrap()
            });
        });

        // Streaming VCD into a discarding writer: sink decode + each
        // window's counting pass + formatting, without filesystem noise.
        group.bench_with_input(BenchmarkId::new("vcd_stream", gates), &gates, |b, _| {
            b.iter(|| {
                let mut sink = VcdSink::new(std::io::sink(), s.graph.name(), &name_refs).unwrap();
                let r = s
                    .session
                    .run_streaming(&s.stimuli, s.duration, &RunOptions::default(), &mut sink)
                    .unwrap();
                sink.finish().unwrap();
                r
            });
        });

        // Streaming SAIF: per-window delta folding, O(nets) memory.
        group.bench_with_input(BenchmarkId::new("saif_stream", gates), &gates, |b, _| {
            b.iter(|| {
                let mut sink = SaifSink::new(s.graph.name(), names.clone());
                let r = s
                    .session
                    .run_streaming(&s.stimuli, s.duration, &RunOptions::default(), &mut sink)
                    .unwrap();
                criterion::black_box(sink.finish(s.duration));
                r
            });
        });

        // The pre-streaming path: spill every waveform to the host, then
        // stitch and write the whole document at once.
        group.bench_with_input(BenchmarkId::new("vcd_posthoc", gates), &gates, |b, _| {
            b.iter(|| {
                let r = s
                    .session
                    .run_with(
                        &s.stimuli,
                        s.duration,
                        &RunOptions::default().with_waveform_spill(),
                    )
                    .unwrap();
                let waves: Vec<(String, gatspi_wave::Waveform)> = (0..s.graph.n_signals())
                    .map(|k| (names[k].clone(), r.waveform(k).unwrap()))
                    .collect();
                criterion::black_box(vcd::write(
                    s.graph.name(),
                    waves.iter().map(|(n, w)| (n.as_str(), w)),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sinks);
criterion_main!(benches);
