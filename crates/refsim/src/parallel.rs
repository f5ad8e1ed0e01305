//! Multi-threaded baseline simulation (Table 4's "multi-threaded
//! commercial tool" configuration).
//!
//! Commercial simulators parallelise conservatively and reach modest
//! speedups (2.5–3.5× in the paper's Table 4). This stand-in uses the only
//! parallelism re-simulation legally exposes to an event-driven engine —
//! independent stimulus windows — sharded across host threads, with a
//! final sequential merge. Scaling is sub-linear because windows inherit
//! unequal activity and the merge is serial, which reproduces the modest
//! multi-threaded speedup regime the paper compares against.

use gatspi_graph::CircuitGraph;
use gatspi_wave::saif::SaifDocument;
use gatspi_wave::{SimTime, Waveform};

use crate::{EventSimulator, RefConfig, RefResult, Result};

/// Event-simulates `[0, duration)` using `threads` host threads, each
/// handling a contiguous time window (aligned to `window_align`).
///
/// # Errors
///
/// As [`EventSimulator::run`].
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn run_parallel(
    graph: &CircuitGraph,
    config: RefConfig,
    stimuli: &[Waveform],
    duration: SimTime,
    threads: usize,
    window_align: SimTime,
) -> Result<RefResult> {
    assert!(threads > 0, "need at least one thread");
    let t_app = std::time::Instant::now();
    if threads == 1 {
        return EventSimulator::new(graph, config).run(stimuli, duration);
    }

    // Window boundaries aligned like the GATSPI engine's.
    let align = i64::from(window_align.max(1));
    let d = i64::from(duration.max(1));
    let units = (d + align - 1) / align;
    let per = ((units + threads as i64 - 1) / threads as i64).max(1) * align;
    let mut windows = Vec::new();
    let mut start = 0i64;
    while start < d {
        let end = (start + per).min(d);
        windows.push((start as SimTime, end as SimTime));
        start = end;
    }

    let mut shard_results: Vec<Option<Result<RefResult>>> = Vec::new();
    shard_results.resize_with(windows.len(), || None);
    let no_waves = RefConfig {
        record_waveforms: false,
        ..config
    };
    let t_kernel = std::time::Instant::now();
    std::thread::scope(|s| {
        for (slot, &(ws, we)) in shard_results.iter_mut().zip(&windows) {
            s.spawn(move || {
                let local: Vec<Waveform> = stimuli.iter().map(|w| w.window(ws, we)).collect();
                let sim = EventSimulator::new(graph, no_waves);
                *slot = Some(sim.run(&local, we - ws));
            });
        }
    });
    let kernel_seconds = t_kernel.elapsed().as_secs_f64();

    // Sequential merge (this serial phase is part of why commercial
    // multi-threaded scaling is modest).
    let n_signals = graph.n_signals();
    let mut toggle_counts = vec![0u64; n_signals];
    let mut saif = SaifDocument::new(graph.name(), i64::from(duration));
    let mut events = 0u64;
    for r in shard_results.into_iter().flatten() {
        let r = r?;
        events += r.events;
        for (s, &c) in r.toggle_counts.iter().enumerate() {
            toggle_counts[s] += c;
        }
        for (name, rec) in r.saif.nets {
            let e = saif.nets.entry(name).or_default();
            e.t0 += rec.t0;
            e.t1 += rec.t1;
            e.tc += rec.tc;
        }
    }
    // Primary-input records come from the unsharded stimulus (window
    // boundaries would otherwise split their toggle counts).
    for (k, &pi) in graph.primary_inputs().iter().enumerate() {
        let w = &stimuli[k];
        let (d0, d1) = w.durations(duration);
        let name = graph.signal_name(pi).to_string();
        let rec = saif.nets.entry(name).or_default();
        rec.t0 = d0;
        rec.t1 = d1;
        rec.tc = w.toggle_count_clipped(duration) as u64;
        toggle_counts[pi.index()] = rec.tc;
    }

    Ok(RefResult {
        saif,
        toggle_counts,
        waveforms: None,
        events,
        kernel_seconds,
        wall_seconds: t_app.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatspi_graph::GraphOptions;
    use gatspi_netlist::{CellLibrary, NetlistBuilder};

    fn graph() -> CircuitGraph {
        let mut b = NetlistBuilder::new("p", CellLibrary::industry_mini());
        let a = b.add_input("a").unwrap();
        let c = b.add_input("b").unwrap();
        let n1 = b.add_net("n1").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate("u1", "XOR2", &[a, c], n1).unwrap();
        b.add_gate("u2", "INV", &[n1], y).unwrap();
        CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap()
    }

    #[test]
    fn parallel_matches_serial() {
        let g = graph();
        let stimuli = vec![
            Waveform::from_toggles(false, &[105, 320, 455, 730]),
            Waveform::from_toggles(true, &[215, 615]),
        ];
        let serial = EventSimulator::new(&g, RefConfig::default())
            .run(&stimuli, 800)
            .unwrap();
        let parallel = run_parallel(&g, RefConfig::default(), &stimuli, 800, 4, 100).unwrap();
        assert!(serial.saif.diff(&parallel.saif).is_empty());
        assert_eq!(serial.total_toggles(), parallel.total_toggles());
    }

    #[test]
    fn single_thread_falls_through() {
        let g = graph();
        let stimuli = vec![Waveform::constant(false), Waveform::constant(true)];
        let r = run_parallel(&g, RefConfig::default(), &stimuli, 100, 1, 10).unwrap();
        assert!(r.waveforms.is_some());
    }
}
