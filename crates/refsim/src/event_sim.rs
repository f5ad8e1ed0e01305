use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use gatspi_graph::CircuitGraph;
use gatspi_sdf::{reduced_column_index, NO_ARC};
use gatspi_wave::saif::{SaifDocument, SaifRecord};
use gatspi_wave::{SimTime, Waveform, WaveformBuilder};

use crate::{RefError, Result};

/// Reference-simulator options (mirrors the GATSPI feature set so both
/// engines compute identical semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefConfig {
    /// `PATHPULSEPERCENT` (0–100).
    pub path_pulse_percent: u32,
    /// Inertial pulse filtering on interconnect.
    pub net_delay_filtering: bool,
    /// Keep per-signal waveforms (disable for large benchmark runs where
    /// only SAIF is needed).
    pub record_waveforms: bool,
}

impl Default for RefConfig {
    fn default() -> Self {
        RefConfig {
            path_pulse_percent: 100,
            net_delay_filtering: true,
            record_waveforms: true,
        }
    }
}

/// Result of an event-driven reference run.
#[derive(Debug)]
pub struct RefResult {
    /// SAIF document (same net set as the GATSPI engine produces).
    pub saif: SaifDocument,
    /// Per-signal toggle counts over `[0, duration)`.
    pub toggle_counts: Vec<u64>,
    /// Full per-signal waveforms, if recording was enabled.
    pub waveforms: Option<Vec<Waveform>>,
    /// Events processed by the queue (throughput denominator).
    pub events: u64,
    /// Seconds inside the event loop ("simulation kernel runtime").
    pub kernel_seconds: f64,
    /// Whole-run seconds including SAIF assembly ("application runtime").
    pub wall_seconds: f64,
}

impl RefResult {
    /// Sum of toggles over all signals.
    pub fn total_toggles(&self) -> u64 {
        self.toggle_counts.iter().sum()
    }
}

/// Pin sort key used for arrival events; output edges use `OUT_PIN` so MSI
/// grouping (same time, same gate, pin < `OUT_PIN`) never absorbs them.
const OUT_PIN: u32 = u32::MAX;

/// Queue entry ordering: `(time, kind, gate, pin, event id)`.
///
/// `kind` 0 = output edge, 1 = pin arrival: at any timestamp every signal
/// change fires (and schedules its zero-wire-delay arrivals) before any
/// gate evaluates — matching the kernel's complete-waveform view, where MSI
/// grouping is by arrival *time*, independent of source firing order.
/// Simultaneous arrivals at one gate then pop consecutively (MSI grouping).
type QueueKey = (i64, u8, u32, u32, u64);

#[derive(Debug, Clone, Copy)]
enum Payload {
    /// A value change arriving at a gate input pin.
    PinArrival { value: bool },
    /// A gate-output (or primary-input) signal change.
    OutputEdge { signal: u32, value: bool },
}

/// Single-threaded event-driven gate-level simulator.
///
/// # Example
///
/// ```
/// use gatspi_graph::{CircuitGraph, GraphOptions};
/// use gatspi_netlist::{CellLibrary, NetlistBuilder};
/// use gatspi_refsim::{EventSimulator, RefConfig};
/// use gatspi_wave::Waveform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("demo", CellLibrary::industry_mini());
/// let a = b.add_input("a")?;
/// let y = b.add_output("y")?;
/// b.add_gate("u", "INV", &[a], y)?;
/// let graph = CircuitGraph::build(&b.finish()?, None, &GraphOptions::default())?;
/// let sim = EventSimulator::new(&graph, RefConfig::default());
/// let r = sim.run(&[Waveform::from_toggles(false, &[50])], 100)?;
/// assert_eq!(r.toggle_counts[y.index()], 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EventSimulator<'a> {
    graph: &'a CircuitGraph,
    config: RefConfig,
}

struct Queue {
    heap: BinaryHeap<Reverse<QueueKey>>,
    payloads: Vec<Payload>,
    valid: Vec<bool>,
}

impl Queue {
    fn push(&mut self, time: i64, gate: u32, pin: u32, payload: Payload) -> u64 {
        let id = self.payloads.len() as u64;
        let kind = match payload {
            Payload::OutputEdge { .. } => 0u8,
            Payload::PinArrival { .. } => 1u8,
        };
        self.payloads.push(payload);
        self.valid.push(true);
        self.heap.push(Reverse((time, kind, gate, pin, id)));
        id
    }
}

impl<'a> EventSimulator<'a> {
    /// Creates a simulator over `graph`.
    pub fn new(graph: &'a CircuitGraph, config: RefConfig) -> Self {
        EventSimulator { graph, config }
    }

    /// One gate evaluation (Algorithm 1 lines 19–25): compares the new
    /// logic value against the scheduled output value, selects the arc
    /// delay over the switched pins, and applies inertial filtering with
    /// the causality-bounded cancel/emit rule.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_gate(
        &self,
        graph: &CircuitGraph,
        g: usize,
        time: i64,
        switched: u32,
        gate_col: &[u32],
        sched_val: &mut [bool],
        prev_to: &mut [i64],
        pending: &mut [Vec<(u64, i64)>],
        q: &mut Queue,
    ) {
        let tt = graph.truth_table(g);
        let y = tt[gate_col[g] as usize] != 0;
        if y == sched_val[g] {
            return;
        }
        let gd = arc_delay(graph, g, gate_col[g], y, switched);
        let to = time + gd;
        // Zero-width pulses always cancel (threshold floor of one tick),
        // mirroring the kernel.
        let threshold = (gd * i64::from(self.config.path_pulse_percent) / 100).max(1);
        // Inertial rejection: retract the pending previous edge
        // (necessarily still in the future). When no pending edge exists —
        // the previous edge already fired, reachable only through a ghost
        // chain — the new edge is emitted instead, matching the GATSPI
        // kernel's causality-bounded rule.
        let filtered = to - prev_to[g] < threshold;
        let mut popped = false;
        if filtered {
            if let Some((eid, _)) = pending[g].pop() {
                q.valid[eid as usize] = false;
                popped = true;
            }
        }
        if !popped {
            let eid = q.push(
                to,
                g as u32,
                OUT_PIN,
                Payload::OutputEdge {
                    signal: graph.gate_output(g).index() as u32,
                    value: y,
                },
            );
            pending[g].push((eid, to));
        }
        sched_val[g] = y;
        prev_to[g] = to;
    }

    /// Event-simulates the design over `[0, duration)`.
    ///
    /// # Errors
    ///
    /// Returns [`RefError::StimulusMismatch`] if `stimuli` does not supply
    /// one waveform per primary input.
    pub fn run(&self, stimuli: &[Waveform], duration: SimTime) -> Result<RefResult> {
        let t_app = Instant::now();
        let graph = self.graph;
        let n_pis = graph.primary_inputs().len();
        if stimuli.len() != n_pis {
            return Err(RefError::StimulusMismatch {
                expected: n_pis,
                got: stimuli.len(),
            });
        }
        let n_signals = graph.n_signals();
        let n_gates = graph.n_gates();

        // --- Initial steady state.
        let init_pi: Vec<bool> = stimuli.iter().map(Waveform::initial_value).collect();
        let init_vals = graph.eval_zero_delay(&init_pi);
        let mut gate_col = vec![0u32; n_gates];
        for (g, col) in gate_col.iter_mut().enumerate() {
            for (i, &sig) in graph.gate_fanin(g).iter().enumerate() {
                if init_vals[sig as usize] {
                    *col |= 1 << i;
                }
            }
        }

        // Per-gate output scheduling state (mirrors the GATSPI kernel).
        let mut sched_val: Vec<bool> = (0..n_gates)
            .map(|g| init_vals[graph.gate_output(g).index()])
            .collect();
        let mut prev_to = vec![0i64; n_gates];
        let mut pending: Vec<Vec<(u64, i64)>> = vec![Vec::new(); n_gates];

        // Per pin slot: last pending wire delivery (event id, source time).
        let n_slots: usize = (0..n_gates).map(|g| graph.gate_fanin(g).len()).sum();
        let mut pin_last: Vec<Option<(u64, i64)>> = vec![None; n_slots];
        // Per pin slot: latest scheduled arrival time. With interconnect
        // filtering off, rise/fall-asymmetric wire delays can reorder a
        // pin's edges in absolute time; the GATSPI kernel walks each input
        // waveform in order and clamps such arrivals up to the previous
        // event time, so the reference must deliver them monotonized the
        // same way to stay bit-exact. (With filtering on, any surviving
        // pulse is wider than the wire delay, and the clamp is a no-op.)
        let mut pin_arrival = vec![i64::MIN; n_slots];

        // Load map (CSR): signal -> (pin slot, gate, pin index).
        let mut load_offsets = vec![0u32; n_signals + 1];
        for g in 0..n_gates {
            for &sig in graph.gate_fanin(g) {
                load_offsets[sig as usize + 1] += 1;
            }
        }
        for s in 0..n_signals {
            load_offsets[s + 1] += load_offsets[s];
        }
        let mut load_slots = vec![0u32; n_slots];
        let mut load_gates = vec![0u32; n_slots];
        let mut load_pins = vec![0u32; n_slots];
        {
            let mut cursor: Vec<u32> = load_offsets[..n_signals].to_vec();
            for g in 0..n_gates {
                let base = graph.pin_base(g);
                for (i, &sig) in graph.gate_fanin(g).iter().enumerate() {
                    let c = cursor[sig as usize] as usize;
                    load_slots[c] = (base + i) as u32;
                    load_gates[c] = g as u32;
                    load_pins[c] = i as u32;
                    cursor[sig as usize] += 1;
                }
            }
        }

        let mut q = Queue {
            heap: BinaryHeap::new(),
            payloads: Vec::new(),
            valid: Vec::new(),
        };
        // Seed: primary-input edges (the testbench "force").
        for (k, &pi) in graph.primary_inputs().iter().enumerate() {
            for (t, v) in stimuli[k].iter().skip(1) {
                q.push(
                    i64::from(t),
                    u32::MAX,
                    pi.index() as u32,
                    Payload::OutputEdge {
                        signal: pi.index() as u32,
                        value: v,
                    },
                );
            }
        }

        let mut recorders: Vec<WaveformBuilder> = (0..n_signals)
            .map(|s| WaveformBuilder::new(init_vals[s]))
            .collect();
        let mut toggle_counts = vec![0u64; n_signals];
        let mut val = init_vals;

        let t_kernel = Instant::now();
        let mut events = 0u64;

        while let Some(&Reverse((time, _kind, gate_key, _pin_key, id))) = q.heap.peek() {
            q.heap.pop();
            if !q.valid[id as usize] {
                continue;
            }
            events += 1;
            match q.payloads[id as usize] {
                Payload::OutputEdge { signal, value } => {
                    let sig = signal as usize;
                    if gate_key != u32::MAX {
                        // Retire from the gate's pending list.
                        let g = gate_key as usize;
                        if let Some(pos) = pending[g].iter().position(|&(eid, _)| eid == id) {
                            pending[g].remove(pos);
                        }
                    }
                    if val[sig] == value {
                        continue;
                    }
                    val[sig] = value;
                    if time > 0 {
                        if time < i64::from(duration) {
                            toggle_counts[sig] += 1;
                        }
                        let _ = recorders[sig].set_value(time as SimTime, value);
                    }
                    // Fan out with wire delays + interconnect filtering.
                    let a = load_offsets[sig] as usize;
                    let b = load_offsets[sig + 1] as usize;
                    for li in a..b {
                        let slot = load_slots[li] as usize;
                        let (dr, df) = graph.net_delays(slot);
                        let nd = if value { dr } else { df };
                        if self.config.net_delay_filtering {
                            if let Some((prev_id, prev_src)) = pin_last[slot] {
                                if q.valid[prev_id as usize] {
                                    // Previous edge ran the other way.
                                    let prev_nd = if value { df } else { dr };
                                    if time - prev_src < i64::from(prev_nd) {
                                        // Pulse narrower than the wire
                                        // delay: both edges die.
                                        q.valid[prev_id as usize] = false;
                                        pin_last[slot] = None;
                                        continue;
                                    }
                                }
                            }
                        }
                        let arrival = (time + i64::from(nd)).max(pin_arrival[slot]);
                        pin_arrival[slot] = arrival;
                        let eid = q.push(
                            arrival,
                            load_gates[li],
                            load_pins[li],
                            Payload::PinArrival { value },
                        );
                        pin_last[slot] = Some((eid, time));
                    }
                }
                Payload::PinArrival { value } => {
                    let g = gate_key as usize;
                    // MSI: gather every same-time arrival at this gate, then
                    // process in waves of at most one edge per pin — exactly
                    // the kernel's per-`ti` rounds (lines 14–18), which a
                    // pin can enter twice when asymmetric wire delays make
                    // two of its source edges arrive simultaneously.
                    let mut batch: Vec<(u32, bool)> = vec![(_pin_key, value)];
                    while let Some(&Reverse((t2, k2, g2, p2, id2))) = q.heap.peek() {
                        if t2 != time || k2 != 1 || g2 != gate_key || p2 == OUT_PIN {
                            break;
                        }
                        q.heap.pop();
                        if !q.valid[id2 as usize] {
                            continue;
                        }
                        events += 1;
                        if let Payload::PinArrival { value: v2 } = q.payloads[id2 as usize] {
                            batch.push((p2, v2));
                        }
                    }
                    while !batch.is_empty() {
                        let mut applied = 0u32;
                        let mut switched = 0u32;
                        let mut rest = Vec::new();
                        for &(pin, v) in &batch {
                            if applied & (1 << pin) != 0 {
                                rest.push((pin, v));
                                continue;
                            }
                            applied |= 1 << pin;
                            apply_pin(&mut gate_col[g], pin, v, &mut switched);
                        }
                        batch = rest;
                        self.evaluate_gate(
                            graph,
                            g,
                            time,
                            switched,
                            &gate_col,
                            &mut sched_val,
                            &mut prev_to,
                            &mut pending,
                            &mut q,
                        );
                    }
                    continue;
                }
            }
        }
        let kernel_seconds = t_kernel.elapsed().as_secs_f64();

        // --- SAIF assembly (clipped to [0, duration), like GATSPI's scan).
        let waveforms: Vec<Waveform> = recorders.into_iter().map(WaveformBuilder::finish).collect();
        let mut saif = SaifDocument::new(graph.name(), i64::from(duration));
        for (k, &pi) in graph.primary_inputs().iter().enumerate() {
            let w = &stimuli[k];
            let (d0, d1) = w.durations(duration);
            let tc = w.toggle_count_clipped(duration) as u64;
            saif.nets.insert(
                graph.signal_name(pi).to_string(),
                SaifRecord {
                    t0: d0,
                    t1: d1,
                    tx: 0,
                    tc,
                    ig: 0,
                },
            );
            toggle_counts[pi.index()] = tc;
        }
        for s in 0..n_signals {
            let sid = gatspi_graph::SignalId(s as u32);
            if graph.driver(sid).is_none() {
                continue;
            }
            let (d0, d1) = waveforms[s].durations(duration);
            saif.nets.insert(
                graph.signal_name(sid).to_string(),
                SaifRecord {
                    t0: d0,
                    t1: d1,
                    tx: 0,
                    tc: toggle_counts[s],
                    ig: 0,
                },
            );
        }

        Ok(RefResult {
            saif,
            toggle_counts,
            waveforms: self.config.record_waveforms.then_some(waveforms),
            events,
            kernel_seconds,
            wall_seconds: t_app.elapsed().as_secs_f64(),
        })
    }
}

#[inline]
fn apply_pin(col: &mut u32, pin: u32, value: bool, switched: &mut u32) {
    let bit = 1u32 << pin;
    if (*col & bit != 0) != value {
        *col ^= bit;
        *switched |= bit;
    }
}

/// Arc-delay selection identical to the GATSPI kernel: minimum over the
/// Fig. 4 LUT entries of the pins that just switched, with the gate-level
/// fallback for unannotated transitions.
fn arc_delay(graph: &CircuitGraph, g: usize, col: u32, y: bool, switched: u32) -> i64 {
    let n = graph.gate_fanin(g).len();
    let mut best = i64::MAX;
    for i in 0..n {
        if switched & (1 << i) == 0 {
            continue;
        }
        let lut = graph.delay_lut(g, i);
        if lut.is_empty() {
            continue;
        }
        let ncols = lut.len() / 4;
        let rcol = reduced_column_index(col, i) as usize;
        let input_rising = (col >> i) & 1 == 1;
        let row = 2 * usize::from(!input_rising) + usize::from(!y);
        let d = lut[row * ncols + rcol];
        if d != NO_ARC && i64::from(d) < best {
            best = i64::from(d);
        }
    }
    if best == i64::MAX {
        let (r, f) = graph.fallback_delay(g);
        best = if y { i64::from(r) } else { i64::from(f) };
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatspi_graph::GraphOptions;
    use gatspi_netlist::{CellLibrary, NetlistBuilder};
    use gatspi_sdf::SdfFile;

    fn build(
        cells: &[(&str, &str, &[&str], &str)],
        ins: &[&str],
        sdf: Option<&str>,
    ) -> CircuitGraph {
        let lib = CellLibrary::industry_mini();
        let mut b = NetlistBuilder::new("t", lib);
        for n in ins {
            b.add_input(n).unwrap();
        }
        // Pre-declare all outputs as nets.
        for (_, _, _, out) in cells {
            if b.find_net(out).is_none() {
                b.add_net(out).unwrap();
            }
        }
        for (name, cell, inputs, out) in cells {
            let input_ids: Vec<_> = inputs.iter().map(|n| b.find_net(n).unwrap()).collect();
            let out_id = b.find_net(out).unwrap();
            b.add_gate(name, cell, &input_ids, out_id).unwrap();
        }
        let netlist = b.finish().unwrap();
        let sdf_file = sdf.map(|s| SdfFile::parse(s).unwrap());
        CircuitGraph::build(&netlist, sdf_file.as_ref(), &GraphOptions::default()).unwrap()
    }

    #[test]
    fn inverter_delay() {
        let sdf = r#"(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (3) (5))))))"#;
        let g = build(&[("u", "INV", &["a"], "y")], &["a"], Some(sdf));
        let sim = EventSimulator::new(&g, RefConfig::default());
        let r = sim
            .run(&[Waveform::from_toggles(false, &[100, 200])], 300)
            .unwrap();
        let y = g.primary_inputs().len(); // signal 1 is `y`
        let w = &r.waveforms.as_ref().unwrap()[y];
        assert_eq!(w.raw(), &[-1, 0, 105, 203, gatspi_wave::EOW]);
        assert_eq!(r.toggle_counts[y], 2);
        assert!(r.events > 0);
    }

    #[test]
    fn glitch_filtered_by_inertial_delay() {
        let sdf = r#"(DELAYFILE (CELL (CELLTYPE "NAND2") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (10) (10)) (IOPATH B Y (10) (10))))))"#;
        let g = build(&[("u", "NAND2", &["a", "b"], "y")], &["a", "b"], Some(sdf));
        let sim = EventSimulator::new(&g, RefConfig::default());
        let r = sim
            .run(
                &[
                    Waveform::from_toggles(false, &[100]),
                    Waveform::from_toggles(true, &[103]),
                ],
                300,
            )
            .unwrap();
        let y = 2;
        assert_eq!(r.toggle_counts[y], 0, "narrow pulse filtered");
    }

    #[test]
    fn glitch_kept_when_wide_enough() {
        let g = build(
            &[("u", "NAND2", &["a", "b"], "y")],
            &["a", "b"],
            None, // unit fallback delays
        );
        let sim = EventSimulator::new(&g, RefConfig::default());
        let r = sim
            .run(
                &[
                    Waveform::from_toggles(false, &[100]),
                    Waveform::from_toggles(true, &[103]),
                ],
                300,
            )
            .unwrap();
        assert_eq!(r.toggle_counts[2], 2, "wide pulse survives");
        let w = &r.waveforms.as_ref().unwrap()[2];
        assert_eq!(w.raw(), &[-1, 0, 101, 104, gatspi_wave::EOW]);
    }

    #[test]
    fn msi_no_spurious_glitch() {
        let g = build(&[("u", "XOR2", &["a", "b"], "y")], &["a", "b"], None);
        let sim = EventSimulator::new(&g, RefConfig::default());
        let r = sim
            .run(
                &[
                    Waveform::from_toggles(false, &[100]),
                    Waveform::from_toggles(false, &[100]),
                ],
                300,
            )
            .unwrap();
        assert_eq!(r.toggle_counts[2], 0, "simultaneous flips cancel");
    }

    #[test]
    fn chain_accumulates_delay() {
        let g = build(
            &[
                ("u0", "INV", &["a"], "n0"),
                ("u1", "INV", &["n0"], "n1"),
                ("u2", "BUF", &["n1"], "y"),
            ],
            &["a"],
            None,
        );
        let sim = EventSimulator::new(&g, RefConfig::default());
        let r = sim
            .run(&[Waveform::from_toggles(true, &[50])], 100)
            .unwrap();
        let w = &r.waveforms.as_ref().unwrap()[3]; // y
        assert_eq!(w.raw(), &[-1, 0, 53, gatspi_wave::EOW]);
    }

    #[test]
    fn saif_matches_waveforms() {
        let g = build(&[("u", "AND2", &["a", "b"], "y")], &["a", "b"], None);
        let sim = EventSimulator::new(&g, RefConfig::default());
        let r = sim
            .run(
                &[
                    Waveform::from_toggles(false, &[10, 60]),
                    Waveform::from_toggles(true, &[80]),
                ],
                100,
            )
            .unwrap();
        let rec = &r.saif.nets["y"];
        assert_eq!(rec.t0 + rec.t1, 100);
        assert_eq!(rec.tc, 2);
    }

    #[test]
    fn stimulus_mismatch() {
        let g = build(&[("u", "INV", &["a"], "y")], &["a"], None);
        let sim = EventSimulator::new(&g, RefConfig::default());
        assert!(matches!(
            sim.run(&[], 10),
            Err(RefError::StimulusMismatch { .. })
        ));
    }

    #[test]
    fn tie_cells_produce_constants() {
        let lib = CellLibrary::industry_mini();
        let mut b = NetlistBuilder::new("t", lib);
        let c = b.add_net("c").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate("t1", "TIEHI", &[], c).unwrap();
        b.add_gate("u", "INV", &[c], y).unwrap();
        let g = CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap();
        let sim = EventSimulator::new(&g, RefConfig::default());
        let r = sim.run(&[], 50).unwrap();
        assert_eq!(r.toggle_counts[y.index()], 0);
        assert!(!r.waveforms.as_ref().unwrap()[y.index()].initial_value());
    }
}
