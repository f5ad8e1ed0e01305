//! The GATSPI re-simulation kernel — the paper's Algorithm 1.
//!
//! One invocation simulates one gate over one stimulus window, advancing
//! pointer "registers" through the input waveforms stored in device memory
//! and emitting the output waveform. The same routine runs in two modes:
//!
//! * [`KernelMode::Store`] — writes the waveform at the pre-assigned
//!   offset;
//! * [`KernelMode::Speculative`] — single-pass: stores like `Store` inside
//!   a pre-reserved budget and only counts past it, so a correct
//!   prediction is the thread's only invocation and a wrong one loses
//!   nothing but the reservation (see the mode's docs). With `cap: 0` it
//!   writes nothing and is Fig. 5's count pass: the output's toggle count
//!   and maximum write extent, which size its arena space exactly.
//!
//! The engine runs every thread as `Speculative` and re-runs only the
//! overflowed ones as `Store` into exact space, so a miss costs count +
//! store — Fig. 5's simulate-twice is the engine's miss path. The cap-0
//! count on its own is what the per-gate micro-benchmarks time against.
//!
//! The store pass is also the *publication* point: the engine's store
//! thread takes `(out_base, KernelOutput::words())` — the same pair this
//! routine computes — and writes the output's pointer/length slots in the
//! shared batch tables itself, then scans the words it just stored for the
//! window's SAIF record, so no host-side per-slot loop and no separate SAIF
//! reader runs after the launch. Levelization guarantees the writes are
//! race-free: a level's input signals are driven strictly below it, so no
//! thread of one launch reads the slots its peers publish.
//!
//! The engine calls this routine once per (gate, window) from a *block*
//! callback: a block walks its threads gate by gate, so everything a
//! gate's windows share — descriptor, pin and delay slices, the rows of
//! the pointer table — is fetched once per gate, not once per window.
//! [`simulate_gate`] itself dispatches on the fan-in to one generic body
//! whose pin registers are `[_; N]` arrays: 0–4-input gates get an exact
//! instance with compile-time pin loops, wider gates share the
//! [`MAX_KERNEL_PINS`] instance with a run-time pin count. Every pin loop
//! indexes the registers by its loop counter only — in an exact instance
//! the loops unroll and the registers stay registers.
//!
//! The kernel counts nothing of its own work, as the paper's CUDA kernel
//! did not (its Table 6 profile came from Nsight): a launch's modeled
//! traffic comes from counts the host holds once the launch has joined
//! ([`LaunchCounts::traffic`]).
//!
//! Semantics implemented exactly as Algorithm 1:
//!
//! * **lines 3–6**: initial-value resolution via the `-1` marker and the
//!   parity encoding (`p % 2` is the pin's current value);
//! * **lines 8–13**: next-event selection across pins with per-edge
//!   interconnect delays and inertial filtering of pulses narrower than the
//!   wire delay (lines 11–12; disabled by
//!   [`SimFeatures::net_delay_filtering`](crate::SimFeatures) = false).
//!   A pin's next arrival depends only on its own pointer, so it is kept
//!   in a per-pin *arrival register*: computed once on entry and recomputed
//!   only for the pins an MSI step consumed;
//! * **lines 14–18**: multiple-simultaneous-input (MSI) resolution — every
//!   pin arriving at the chosen timestamp is consumed before a single
//!   evaluation;
//! * **lines 19–25**: output inertial filtering with `PATHPULSEPERCENT`:
//!   a new edge landing within `gate_delay * ppp / 100` of the previous
//!   output edge cancels it (pops the waveform) and leaves its own
//!   timestamp as the *ghost* reference for subsequent filtering decisions,
//!   mirroring the unconditional `allW[p_o] = t_o` of line 25. Two guards
//!   refine the paper's pseudocode: (1) the ghost timestamp is held in a
//!   register instead of being stored, so a cancellation never retimes the
//!   committed edge below it; (2) the pop never descends past the
//!   initial-value entry (which would corrupt the `-1` marker) — in that
//!   case the edge is dropped and only the ghost timestamp advances.
//!
//! Arc delays come from the Fig. 4 conditional LUTs; when an arc is
//! unspecified (`NO_ARC`) the gate's fallback delay applies, and with
//! [`SimFeatures::full_sdf`](crate::SimFeatures) = false the collapsed
//! average rise/fall pair is used instead (Table 7's "No Full SDF").

use gatspi_gpu::DeviceMemory;
use gatspi_graph::CircuitGraph;
use gatspi_sdf::{reduced_column_index, NO_ARC};
use gatspi_wave::{EOW, INIT_ONE_MARKER};

use crate::SimFeatures;

/// Upper bound on gate fan-in the kernel's pointer registers support.
pub const MAX_KERNEL_PINS: usize = 16;

const EOW64: i64 = i64::MAX;

/// Depth of the per-thread live-edge timestamp window used to bound
/// inertial cancellations by causality.
const EDGE_TIME_STACK: usize = 32;

/// Which pass of the simulation is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Store the output waveform starting at the given arena word offset.
    Store {
        /// Absolute word offset of the output waveform's first entry (must
        /// be even, per the parity encoding).
        out_base: usize,
    },
    /// Speculative single-pass: behaves exactly like [`KernelMode::Store`]
    /// while every write lands inside the `cap`-word reservation at
    /// `out_base`, and only counts past it — writes beyond the
    /// reservation are suppressed (nothing outside
    /// `out_base..out_base + cap` is ever touched) while the full toggle
    /// count and extent keep accumulating. The caller decides from the
    /// returned [`KernelOutput`]: `words() <= cap` means the stored
    /// waveform is bit-identical to a `Store` run (every write executed);
    /// otherwise the reservation holds garbage and the gate must be
    /// re-run by the exact repair pass.
    Speculative {
        /// Absolute word offset of the reservation (must be even).
        out_base: usize,
        /// Reservation size in words.
        cap: usize,
    },
}

/// Per-(gate, window) kernel result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOutput {
    /// Final toggle count (SAIF `TC`).
    pub toggles: u32,
    /// Maximum live extent reached while simulating — the store pass may
    /// transiently write this many edges before cancellations pop them.
    pub max_extent: u32,
    /// Whether the output's initial value is 1 (needs the `-1` marker).
    pub initial_one: bool,
}

impl KernelOutput {
    /// Arena words the stored waveform needs: optional marker + initial
    /// entry + maximum transient edges + EOW terminator.
    pub fn words(&self) -> u32 {
        u32::from(self.initial_one) + 1 + self.max_extent + 1
    }

    /// Largest `max_extent` the packed layout can carry: the field is 31
    /// bits wide (bit 63 belongs to the initial-one flag, and
    /// [`KernelOutput::unpack`] masks accordingly).
    pub const MAX_PACKED_EXTENT: u32 = 0x7FFF_FFFF;

    /// Packs this result into the per-thread count word the engine's
    /// speculative pass stores (toggles in bits 0..32, max extent in 32..63,
    /// initial-one flag in bit 63). The canonical codec — every consumer
    /// of the packed layout goes through this pair.
    ///
    /// `max_extent` saturates at [`KernelOutput::MAX_PACKED_EXTENT`]
    /// instead of silently bleeding into the initial-one bit (an extent of
    /// 2³¹ would otherwise flip it and corrupt the round-trip); a debug
    /// assertion catches any real workload that ever gets near the cap.
    pub fn pack(self) -> u64 {
        debug_assert!(
            self.max_extent <= Self::MAX_PACKED_EXTENT,
            "max_extent {} overflows the 31-bit packed extent field",
            self.max_extent
        );
        u64::from(self.toggles)
            | (u64::from(self.max_extent.min(Self::MAX_PACKED_EXTENT)) << 32)
            | (u64::from(self.initial_one) << 63)
    }

    /// Inverse of [`KernelOutput::pack`].
    pub fn unpack(packed: u64) -> Self {
        KernelOutput {
            toggles: packed as u32,
            max_extent: (packed >> 32) as u32 & 0x7FFF_FFFF,
            initial_one: packed >> 63 == 1,
        }
    }

    /// Stored length in words of a packed result (unpadded).
    pub fn unpack_words(packed: u64) -> u32 {
        Self::unpack(packed).words()
    }

    /// Even-aligned arena words a packed result's waveform occupies.
    pub fn unpack_words_even(packed: u64) -> usize {
        let words = Self::unpack(packed).words() as usize;
        words + (words & 1)
    }
}

/// Per-gate descriptor row: every graph lookup the kernel's hot loop used
/// to resolve through `CircuitGraph` accessor indirection (truth table,
/// delay-LUT base and column count, fallback delays), baked flat at
/// schedule compile time so one invocation touches only dense arrays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateDesc {
    /// Input pin count.
    pub fanin: u32,
    /// The gate's flat pin-slot base in the graph (where per-pin-slot
    /// session tables, like the collapsed average delays, index from).
    pub pin_base: u32,
    /// Offset of the gate's `2^fanin` truth-table rows in
    /// [`CircuitGraph::truth_tables_flat`].
    pub tt_base: u32,
    /// Offset of the gate's pin-0 delay LUT in
    /// [`CircuitGraph::delay_luts_flat`]; pin `p`'s block starts
    /// `p * 4 * lut_ncols` entries later (per-gate blocks are contiguous).
    pub lut_base: u32,
    /// Reduced columns per LUT row (`2^(fanin-1)`; 0 for 0-input gates).
    pub lut_ncols: u32,
    /// Fallback rise delay for unannotated arcs.
    pub fb_rise: i32,
    /// Fallback fall delay for unannotated arcs.
    pub fb_fall: i32,
}

impl GateDesc {
    /// Builds the descriptor row of gate `g` — one graph walk, done once
    /// per schedule compile instead of once per kernel invocation.
    pub fn of(graph: &CircuitGraph, g: usize) -> GateDesc {
        let n = graph.gate_fanin(g).len();
        let (fb_rise, fb_fall) = graph.fallback_delay(g);
        GateDesc {
            fanin: n as u32,
            pin_base: graph.pin_base(g) as u32,
            tt_base: graph.truth_table_base(g) as u32,
            lut_base: graph.delay_lut_base(g) as u32,
            lut_ncols: if n == 0 { 0 } else { 1 << (n - 1) },
            fb_rise,
            fb_fall,
        }
    }
}

/// Read-only context for one kernel invocation.
#[derive(Debug, Clone, Copy)]
pub struct GateKernelInput<'a> {
    /// The gate's descriptor row (see [`GateDesc`]).
    pub desc: GateDesc,
    /// The graph's flat truth-table pool
    /// ([`CircuitGraph::truth_tables_flat`]).
    pub tts: &'a [u8],
    /// The graph's flat delay-LUT pool
    /// ([`CircuitGraph::delay_luts_flat`]).
    pub luts: &'a [i32],
    /// Per-pin interconnect `(rise, fall)` delays, pin order
    /// (`desc.fanin` entries).
    pub net_delays: &'a [(i32, i32)],
    /// Device memory holding all waveforms.
    pub mem: &'a DeviceMemory,
    /// Absolute word offsets of each input pin's waveform (pin order).
    pub in_ptrs: &'a [u32],
    /// Feature switches.
    pub features: SimFeatures,
    /// `PATHPULSEPERCENT` (0–100).
    pub ppp: u32,
    /// Per-pin collapsed `(rise, fall)` delays, pin order; consulted only
    /// when `features.full_sdf` is false.
    pub avg_delays: &'a [(i32, i32)],
}

/// Simulates one gate over one window (Algorithm 1). See the module docs
/// for semantics.
///
/// # Panics
///
/// Panics if the gate has more than `MAX_KERNEL_PINS` inputs or if
/// `in_ptrs` does not match the gate's fan-in count.
pub fn simulate_gate(input: &GateKernelInput<'_>, mode: KernelMode) -> KernelOutput {
    match input.desc.fanin {
        0 => simulate::<0>(input, mode),
        1 => simulate::<1>(input, mode),
        2 => simulate::<2>(input, mode),
        3 => simulate::<3>(input, mode),
        4 => simulate::<4>(input, mode),
        _ => simulate::<MAX_KERNEL_PINS>(input, mode),
    }
}

/// Algorithm 1 for a gate of exactly `N` pins, or — in the
/// `MAX_KERNEL_PINS` instance — of at most `N`, counted at run time.
// Indexed pin loops mirror the CUDA kernel's per-lane register arrays;
// iterator adapters would obscure the correspondence with Algorithm 1.
#[allow(clippy::needless_range_loop)]
fn simulate<const N: usize>(input: &GateKernelInput<'_>, mode: KernelMode) -> KernelOutput {
    let mem = input.mem;
    let desc = input.desc;
    let n = if N == MAX_KERNEL_PINS {
        desc.fanin as usize
    } else {
        N
    };
    assert!(n <= N, "gate exceeds MAX_KERNEL_PINS");
    assert_eq!(input.in_ptrs.len(), n, "pointer count mismatch");
    let mut wire = [(0i32, 0i32); N];
    wire[..n].copy_from_slice(input.net_delays);
    let tt = &input.tts[desc.tt_base as usize..desc.tt_base as usize + (1usize << n)];

    // One decode serves both modes: `limit` is the first word index writes
    // must not reach — unbounded for Store, the reservation end for
    // Speculative. Every write whose index clears `limit` is executed
    // exactly as Store would, so a speculative run that finishes with
    // `words() <= cap` produced a bit-identical waveform; one that does not
    // has kept counting without touching anything outside its reservation.
    let (out_base, limit) = match mode {
        KernelMode::Store { out_base } => (out_base, usize::MAX),
        KernelMode::Speculative { out_base, cap } => (out_base, out_base + cap),
    };

    // --- Lines 3–6: initial values. Pointer parity encodes the value.
    let mut p = [0u32; N];
    let mut col = 0u32;
    for i in 0..n {
        let mut ptr = input.in_ptrs[i];
        if mem.load(ptr as usize) == INIT_ONE_MARKER {
            ptr += 1;
        }
        p[i] = ptr;
        col |= (ptr & 1) << i;
    }
    let mut out_val = tt[col as usize] as u32;

    let initial_one = out_val == 1;
    let mut extent = 0u32; // live edges beyond the initial entry
    let mut max_extent = 0u32;
    // Ghost reference timestamp (line 25 analogue).
    let mut prev_to: i64 = 0;
    // Circular stack of live-edge timestamps by stack position: an inertial
    // cancellation may only retract an edge that is still in the future
    // (time > current event); retracting an older edge would rewrite
    // history no causal (event-driven) simulator could reproduce. Depth 32
    // covers any physical cancellation chain.
    let mut edge_times = [i64::MIN; EDGE_TIME_STACK];

    debug_assert_eq!(out_base % 2, 0, "output base must be even");
    let (mut po, po_min) = if initial_one {
        if out_base < limit {
            mem.store(out_base, INIT_ONE_MARKER);
        }
        if out_base + 1 < limit {
            mem.store(out_base + 1, 0);
        }
        (out_base + 1, out_base + 1)
    } else {
        if out_base < limit {
            mem.store(out_base, 0);
        }
        (out_base, out_base)
    };

    // --- Lines 8–13: pin `i`'s next arrival — its next edge plus the wire
    // delay, skipping pulses narrower than that delay (`+= 2` keeps the
    // parity). It depends on the pin's own pointer alone, which is what
    // makes the per-pin arrival registers below exact.
    let next_arrival = |i: usize, p: &mut u32| -> i64 {
        loop {
            let t1 = mem.load(*p as usize + 1);
            if t1 == EOW {
                return EOW64;
            }
            let (dr, df) = wire[i];
            let nd = if *p & 1 == 1 { df } else { dr };
            if input.features.net_delay_filtering {
                let t2 = mem.load(*p as usize + 2);
                if t2 != EOW && i64::from(t2) - i64::from(t1) < i64::from(nd) {
                    // Pulse narrower than the wire delay: both edges die.
                    *p += 2;
                    continue;
                }
            }
            return i64::from(t1) + i64::from(nd);
        }
    };
    let mut arrival = [EOW64; N];
    // The earliest register: the next event's timestamp.
    let mut next_ti = EOW64;
    for i in 0..n {
        arrival[i] = next_arrival(i, &mut p[i]);
        next_ti = next_ti.min(arrival[i]);
    }
    let mut last_ti: i64 = 0;

    while next_ti != EOW64 {
        // Without interconnect filtering, rise/fall-asymmetric wire delays
        // can reorder arrivals; monotonize so output timestamps stay sorted.
        let ti = next_ti.max(last_ti);
        last_ti = ti;

        // --- Lines 14–18: MSI resolution — consume every pin arriving now
        // (arrival < ti only in the monotonized no-filter case); the same
        // pass over the registers finds the following event.
        let mut switched = 0u32;
        next_ti = EOW64;
        for i in 0..n {
            if arrival[i] <= ti {
                p[i] += 1;
                col ^= 1 << i;
                switched |= 1 << i;
                arrival[i] = next_arrival(i, &mut p[i]);
            }
            next_ti = next_ti.min(arrival[i]);
        }
        let y = tt[col as usize] as u32;

        // --- Line 19: only a change of output value produces an edge.
        if y == out_val {
            continue;
        }

        // Arc delay: minimum over switching pins' Fig. 4 LUT entries; an
        // unannotated arc falls back to the gate's conservative default.
        let mut gate_delay = i64::MAX;
        for i in 0..n {
            if switched & (1 << i) == 0 {
                continue;
            }
            let d = if input.features.full_sdf {
                let ncols = desc.lut_ncols as usize;
                let lut_base = desc.lut_base as usize + i * 4 * ncols;
                let rcol = reduced_column_index(col, i) as usize;
                let input_rising = p[i] & 1 == 1;
                let output_rising = y == 1;
                let row = 2 * usize::from(!input_rising) + usize::from(!output_rising);
                input.luts[lut_base + row * ncols + rcol]
            } else {
                let (ar, af) = input.avg_delays[i];
                if y == 1 {
                    ar
                } else {
                    af
                }
            };
            if d != NO_ARC && i64::from(d) < gate_delay {
                gate_delay = i64::from(d);
            }
        }
        if gate_delay == i64::MAX {
            gate_delay = if y == 1 {
                i64::from(desc.fb_rise)
            } else {
                i64::from(desc.fb_fall)
            };
        }

        // --- Lines 20–25: output edge with inertial (PATHPULSEPERCENT)
        // filtering and ghost-timestamp semantics.
        let to = ti + gate_delay;
        // Zero-width pulses are not pulses at all — they always cancel, so
        // the effective threshold never drops below one tick even when
        // PATHPULSEPERCENT rounds to zero.
        let threshold = (gate_delay * i64::from(input.ppp) / 100).max(1);
        // Inertial rejection: a new edge within the threshold of the ghost
        // reference cancels the previous output edge — both edges of the
        // sub-threshold pulse die. The paper's line 25 writes `t_o` into the
        // popped slot unconditionally; this implementation refines that in
        // two ways that keep stored waveforms well-formed and event-driven-
        // reproducible while preserving the same filtering decisions:
        //
        // * the ghost timestamp lives in a register (`prev_to`) instead of
        //   retiming the committed edge below the pop;
        // * the pop is bounded by causality: only an edge that has not yet
        //   manifested (timestamp > current event time) can be retracted.
        //   When the previous edge already fired (only reachable through a
        //   ghost chain), the new edge is *emitted* instead — the output
        //   did transition, and emitting keeps every gate's settled value
        //   equal to its combinational function, which window re-derivation
        //   (and any event-driven simulator) depends on.
        let top_time = if extent > 0 {
            edge_times[(extent as usize - 1) % EDGE_TIME_STACK]
        } else {
            i64::MIN
        };
        let cancel = to - prev_to < threshold && top_time > ti;
        if cancel {
            extent -= 1;
            po -= 1;
        } else {
            edge_times[extent as usize % EDGE_TIME_STACK] = to;
            extent += 1;
            if extent > max_extent {
                max_extent = extent;
            }
            po += 1;
            debug_assert!(po > po_min);
            if po < limit {
                mem.store(po, to as i32);
            }
        }
        out_val = y;
        prev_to = to;
    }

    // Terminate the stored waveform, then pad the slots between the
    // terminator and the published length (the transient high-water mark)
    // with EOW too. Readers stop at the first EOW either way, but the pad
    // makes the stored bytes a pure function of the inputs — cancelled
    // ghost slots and never-touched arena words would otherwise leak
    // whatever the previous batch left at the address, and a waveform's
    // address depends on the extent history (a hit lands in its
    // reservation, a repair in fresh space), which must not be observable.
    if po + 1 < limit {
        mem.store(po + 1, EOW);
        let published_end =
            out_base + u32::from(initial_one) as usize + 1 + max_extent as usize + 1;
        for p in (po + 2)..published_end.min(limit) {
            mem.store(p, EOW);
        }
    }

    KernelOutput {
        toggles: extent,
        max_extent,
        initial_one,
    }
}

/// What one kernel launch ran, in counts the host holds once the launch
/// has joined: the inputs of its modeled traffic ([`LaunchCounts::traffic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaunchCounts {
    /// (gate, window) threads launched.
    pub threads: u64,
    /// Input pins the threads read: Σ fan-in over the threads.
    pub pin_reads: u64,
    /// Published words of the waveforms those pins read.
    pub input_words: u64,
    /// Published words of the waveforms the threads produced.
    pub output_words: u64,
}

impl LaunchCounts {
    /// The launch's `(loads, stores, instructions)` for the performance
    /// model ([`KernelProfile::model`](gatspi_gpu::KernelProfile::model)):
    /// what Algorithm 1 does per waveform word, summed over the launch.
    ///
    /// A waveform is an initial entry, its edges and an EOW terminator (a
    /// value-1 start's marker and a cancelled transient's pad word count
    /// as edges here), so the launch's input edges are `input_words −
    /// 2·pin_reads` and its output edges `output_words − 2·threads`.
    ///
    /// * loads: every input word once — a pin's initial value (lines 3–6),
    ///   then each edge and the terminator as the pin's next arrival is
    ///   sought (lines 8–13); net-delay filtering reads each input edge a
    ///   second time for its pulse-width check (lines 11–12), and full SDF
    ///   reads one delay-LUT entry per output edge (Fig. 4);
    /// * stores: every output word once;
    /// * instructions: two per thread and one per pin to resolve the
    ///   initial values, six per input edge to take its arrival and resolve
    ///   its event (lines 8–18), four per output edge to pick its delay and
    ///   filter it (lines 19–25).
    pub fn traffic(&self, features: SimFeatures) -> (u64, u64, u64) {
        let in_edges = self.input_words.saturating_sub(2 * self.pin_reads);
        let out_edges = self.output_words.saturating_sub(2 * self.threads);
        let loads = self.input_words
            + u64::from(features.net_delay_filtering) * in_edges
            + u64::from(features.full_sdf) * out_edges;
        let instructions = 2 * self.threads + self.pin_reads + 6 * in_edges + 4 * out_edges;
        (loads, self.output_words, instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatspi_graph::GraphOptions;
    use gatspi_netlist::{CellLibrary, NetlistBuilder};
    use gatspi_sdf::SdfFile;
    use gatspi_wave::Waveform;

    /// The count pass: a speculative run with an empty reservation writes
    /// nothing and returns the output's exact size.
    const COUNT: KernelMode = KernelMode::Speculative {
        out_base: 0,
        cap: 0,
    };

    /// Uploads `waves` from word 0 of `mem`, each at an even offset (the
    /// kernel reads a value from its pointer's parity); returns the offsets.
    fn upload(mem: &DeviceMemory, waves: &[Waveform]) -> Vec<u32> {
        let mut words = Vec::new();
        let ptrs = waves
            .iter()
            .map(|w| {
                words.resize(words.len().next_multiple_of(2), 0);
                let ptr = words.len() as u32;
                words.extend_from_slice(w.raw());
                ptr
            })
            .collect();
        mem.h2d(0, &words);
        ptrs
    }

    /// Builds a single-gate graph plus device memory pre-loaded with input
    /// waveforms; returns (graph, mem, in_ptrs).
    fn single_gate(
        cell: &str,
        inputs: &[Waveform],
        sdf: Option<&str>,
    ) -> (CircuitGraph, DeviceMemory, Vec<u32>) {
        let lib = CellLibrary::industry_mini();
        let n_in = lib.cell(lib.find(cell).unwrap()).num_inputs();
        assert_eq!(n_in, inputs.len());
        let mut b = NetlistBuilder::new("t", lib);
        let ins: Vec<_> = (0..n_in)
            .map(|i| b.add_input(&format!("i{i}")).unwrap())
            .collect();
        let y = b.add_output("y").unwrap();
        b.add_gate("u", cell, &ins, y).unwrap();
        let netlist = b.finish().unwrap();
        let sdf_file = sdf.map(|s| SdfFile::parse(s).unwrap());
        let graph =
            CircuitGraph::build(&netlist, sdf_file.as_ref(), &GraphOptions::default()).unwrap();

        let mem = DeviceMemory::new(8192);
        let ptrs = upload(&mem, inputs);
        (graph, mem, ptrs)
    }

    /// Owned per-gate kernel context (descriptor + per-pin delay tables)
    /// for gate 0 — the test-side analogue of what the schedule bakes.
    struct Ctx {
        desc: GateDesc,
        nd: Vec<(i32, i32)>,
        avg: Vec<(i32, i32)>,
    }

    impl Ctx {
        fn new(graph: &CircuitGraph, avg: Vec<(i32, i32)>) -> Ctx {
            let desc = GateDesc::of(graph, 0);
            let nd = (0..desc.fanin as usize)
                .map(|i| graph.net_delays(desc.pin_base as usize + i))
                .collect();
            Ctx { desc, nd, avg }
        }

        fn input<'a>(
            &'a self,
            graph: &'a CircuitGraph,
            mem: &'a DeviceMemory,
            ptrs: &'a [u32],
            features: SimFeatures,
            ppp: u32,
        ) -> GateKernelInput<'a> {
            GateKernelInput {
                desc: self.desc,
                tts: graph.truth_tables_flat(),
                luts: graph.delay_luts_flat(),
                net_delays: &self.nd,
                mem,
                in_ptrs: ptrs,
                features,
                ppp,
                avg_delays: &self.avg,
            }
        }
    }

    fn run(
        graph: &CircuitGraph,
        mem: &DeviceMemory,
        ptrs: &[u32],
        features: SimFeatures,
        ppp: u32,
    ) -> Waveform {
        let ctx = Ctx::new(graph, vec![(0, 0); ptrs.len()]);
        let input = ctx.input(graph, mem, ptrs, features, ppp);
        let count = simulate_gate(&input, COUNT);
        let out_base = 6000usize;
        let store = simulate_gate(&input, KernelMode::Store { out_base });
        assert_eq!(count, store, "count and store passes must agree");
        let words = store.words() as usize;
        // A speculative run with an exact-fit reservation must hit and
        // reproduce the stored waveform bit-for-bit (including stale ghost
        // slots — both regions start from identical contents).
        let spec_base = 7000usize;
        let spec = simulate_gate(
            &input,
            KernelMode::Speculative {
                out_base: spec_base,
                cap: words,
            },
        );
        assert_eq!(spec, store, "speculative pass must agree");
        assert!(spec.words() as usize <= words, "exact-fit reservation hits");
        assert_eq!(
            mem.d2h(spec_base, words),
            mem.d2h(out_base, words),
            "speculative hit must be bit-identical to the store pass"
        );
        let raw = mem.d2h(out_base, words);
        // Truncate at EOW (stale ghost slots may follow).
        let end = raw.iter().position(|&v| v == EOW).expect("EOW present") + 1;
        Waveform::from_raw(raw[..end].to_vec()).expect("valid output")
    }

    fn run_default(graph: &CircuitGraph, mem: &DeviceMemory, ptrs: &[u32]) -> Waveform {
        run(graph, mem, ptrs, SimFeatures::default(), 100)
    }

    const INV_SDF: &str = r#"(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (3) (5))))))"#;

    #[test]
    fn inverter_with_rise_fall_delays() {
        let a = Waveform::from_toggles(false, &[100, 200]);
        let (g, mem, ptrs) = single_gate("INV", &[a], Some(INV_SDF));
        let y = run_default(&g, &mem, &ptrs);
        // Initial: a=0 -> y=1. a rises at 100 -> y falls at 100+5. a falls
        // at 200 -> y rises at 200+3.
        assert_eq!(y.raw(), &[-1, 0, 105, 203, EOW]);
    }

    #[test]
    fn buffer_passes_through() {
        let a = Waveform::from_toggles(true, &[50]);
        let (g, mem, ptrs) = single_gate("BUF", &[a], None);
        let y = run_default(&g, &mem, &ptrs);
        // Default fallback delay is (1,1).
        assert_eq!(y.raw(), &[-1, 0, 51, EOW]);
    }

    #[test]
    fn tie_cell_constant_output() {
        let lib = CellLibrary::industry_mini();
        let mut b = NetlistBuilder::new("t", lib);
        let y = b.add_output("y").unwrap();
        b.add_gate("u", "TIEHI", &[], y).unwrap();
        let graph =
            CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap();
        let mem = DeviceMemory::new(8192);
        let w = run_default(&graph, &mem, &[]);
        assert_eq!(w, Waveform::constant(true));
    }

    #[test]
    fn nand_gate_logic_and_glitch() {
        // a: 0->1 at 100; b: 1->0 at 103. With unit delays the NAND output
        // pulses 1->0 at 101 and back 0->1 at 104 (width 3 >= delay 1: kept).
        let a = Waveform::from_toggles(false, &[100]);
        let b = Waveform::from_toggles(true, &[103]);
        let (g, mem, ptrs) = single_gate("NAND2", &[a, b], None);
        let y = run_default(&g, &mem, &ptrs);
        assert_eq!(y.raw(), &[-1, 0, 101, 104, EOW]);
    }

    #[test]
    fn gate_inertial_filtering_kills_narrow_pulse() {
        const SDF: &str = r#"(DELAYFILE (CELL (CELLTYPE "NAND2") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (10) (10)) (IOPATH B Y (10) (10))))))"#;
        // Same shape but delay 10 > pulse width 3: output pulse filtered.
        let a = Waveform::from_toggles(false, &[100]);
        let b = Waveform::from_toggles(true, &[103]);
        let (g, mem, ptrs) = single_gate("NAND2", &[a, b], Some(SDF));
        let y = run_default(&g, &mem, &ptrs);
        // Output stays 1 throughout; the ghost timestamp moved but no edge
        // survives.
        assert_eq!(y.toggle_count(), 0);
        assert!(y.initial_value());
    }

    #[test]
    fn path_pulse_percent_relaxes_filtering() {
        const SDF: &str = r#"(DELAYFILE (CELL (CELLTYPE "NAND2") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (10) (10)) (IOPATH B Y (10) (10))))))"#;
        let a = Waveform::from_toggles(false, &[100]);
        let b = Waveform::from_toggles(true, &[103]);
        let (g, mem, ptrs) = single_gate("NAND2", &[a, b], Some(SDF));
        // ppp=20: only pulses narrower than 2 ticks are filtered; width-3
        // pulse survives.
        let y = run(&g, &mem, &ptrs, SimFeatures::default(), 20);
        assert_eq!(y.raw(), &[-1, 0, 110, 113, EOW]);
    }

    #[test]
    fn msi_single_evaluation() {
        // Both NAND inputs rise at exactly 100: output falls once (0->1
        // would glitch if pins were processed separately on an XOR).
        let a = Waveform::from_toggles(false, &[100]);
        let b = Waveform::from_toggles(false, &[100]);
        let (g, mem, ptrs) = single_gate("XOR2", &[a, b], None);
        let y = run_default(&g, &mem, &ptrs);
        // XOR of identical waveforms: constant 0, no glitch at 100.
        assert_eq!(y.toggle_count(), 0);
        assert!(!y.initial_value());
    }

    #[test]
    fn msi_via_wire_delay_collision() {
        const SDF: &str = r#"(DELAYFILE
  (CELL (CELLTYPE "XOR2") (INSTANCE u)
    (DELAY (ABSOLUTE (IOPATH A Y (1) (1)) (IOPATH B Y (1) (1)))))
  (CELL (CELLTYPE "__wire__") (INSTANCE *)
    (DELAY (ABSOLUTE (INTERCONNECT x u/A (5) (5)))))
)"#;
        // a toggles at 100 (arrives 105 via wire), b toggles at 105
        // (arrives 105): MSI. XOR sees both flip together: no output edge.
        let a = Waveform::from_toggles(false, &[100]);
        let b = Waveform::from_toggles(false, &[105]);
        // Note: interconnect binds by instance/pin; build manually to name
        // the driver net `x`.
        let lib = CellLibrary::industry_mini();
        let mut nb = NetlistBuilder::new("t", lib);
        let x = nb.add_input("x").unwrap();
        let w = nb.add_input("w").unwrap();
        let y = nb.add_output("y").unwrap();
        nb.add_gate("u", "XOR2", &[x, w], y).unwrap();
        let netlist = nb.finish().unwrap();
        let sdf = SdfFile::parse(SDF).unwrap();
        let graph = CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap();
        let mem = DeviceMemory::new(8192);
        let ptrs = upload(&mem, &[a, b]);
        let out = run_default(&graph, &mem, &ptrs);
        assert_eq!(out.toggle_count(), 0);
    }

    #[test]
    fn interconnect_inertial_filtering() {
        const SDF: &str = r#"(DELAYFILE
  (CELL (CELLTYPE "BUF") (INSTANCE u)
    (DELAY (ABSOLUTE (IOPATH A Y (1) (1)))))
  (CELL (CELLTYPE "__wire__") (INSTANCE *)
    (DELAY (ABSOLUTE (INTERCONNECT x u/A (8) (8)))))
)"#;
        // Pulse 100..103 is narrower than the 8-tick wire delay: filtered
        // before the gate ever sees it.
        let a = Waveform::from_toggles(false, &[100, 103, 200]);
        let lib = CellLibrary::industry_mini();
        let mut nb = NetlistBuilder::new("t", lib);
        let x = nb.add_input("x").unwrap();
        let y = nb.add_output("y").unwrap();
        nb.add_gate("u", "BUF", &[x], y).unwrap();
        let netlist = nb.finish().unwrap();
        let sdf = SdfFile::parse(SDF).unwrap();
        let graph = CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap();
        let mem = DeviceMemory::new(8192);
        let ptrs = upload(&mem, &[a]);
        let out = run_default(&graph, &mem, &ptrs);
        // Only the edge at 200 survives: arrives 208, +1 gate delay = 209.
        assert_eq!(out.raw(), &[0, 209, EOW]);

        // With filtering disabled the pulse propagates.
        let features = SimFeatures {
            net_delay_filtering: false,
            ..SimFeatures::default()
        };
        let out2 = run(&graph, &mem, &ptrs, features, 100);
        assert_eq!(out2.toggle_count(), 3);
    }

    #[test]
    fn idle_pin_keeps_its_filtered_arrival_while_another_pin_switches() {
        const SDF: &str = r#"(DELAYFILE
  (CELL (CELLTYPE "XOR2") (INSTANCE u)
    (DELAY (ABSOLUTE (IOPATH A Y (1) (1)) (IOPATH B Y (1) (1)))))
  (CELL (CELLTYPE "__wire__") (INSTANCE *)
    (DELAY (ABSOLUTE (INTERCONNECT i0 u/A (8) (8)))))
)"#;
        // A's pulse 150..153 is narrower than its 8-tick wire: both edges
        // die on entry and A's register holds 300 + 8 = 308 while B's three
        // early edges are consumed one event at a time around it.
        let a = Waveform::from_toggles(false, &[150, 153, 300]);
        let b = Waveform::from_toggles(false, &[100, 200, 250, 400]);
        let (g, mem, ptrs) = single_gate("XOR2", &[a, b], Some(SDF));
        let y = run_default(&g, &mem, &ptrs);
        // y = A ^ B: B rises 100 → 101; B falls 200 → 201; B rises 250 →
        // 251; A rises (arrives 308) → 309; B falls 400 → 401.
        assert_eq!(y.raw(), &[0, 101, 201, 251, 309, 401, EOW]);
    }

    #[test]
    fn asymmetric_wire_without_filtering_monotonizes_arrivals() {
        const SDF: &str = r#"(DELAYFILE
  (CELL (CELLTYPE "XOR2") (INSTANCE u)
    (DELAY (ABSOLUTE (IOPATH A Y (1) (1)) (IOPATH B Y (1) (1)))))
  (CELL (CELLTYPE "__wire__") (INSTANCE *)
    (DELAY (ABSOLUTE (INTERCONNECT i0 u/A (10) (2)))))
)"#;
        // A rises at 100 (arrives 110) and falls at 105 (arrives 107,
        // *before* its rise): the fall is consumed at the monotonized 110.
        let a = Waveform::from_toggles(false, &[100, 105, 200]);
        let b = Waveform::from_toggles(false, &[108]);
        let (g, mem, ptrs) = single_gate("XOR2", &[a, b], Some(SDF));
        let features = SimFeatures {
            net_delay_filtering: false,
            ..SimFeatures::default()
        };
        let y = run(&g, &mem, &ptrs, features, 100);
        // B rises 108 → y rises 109. A's rise at 110 → y falls 111; A's
        // fall, held to 110 → y rises 111 again, a zero-width pulse that
        // cancels the fall. A's rise at 200 arrives 210 → y falls 211.
        assert_eq!(y.raw(), &[0, 109, 211, EOW]);
    }

    #[test]
    fn aoi22_three_pins_arriving_together_evaluate_once() {
        // Pins (A1, A2, B1, B2), Y = !((A1 & A2) | (B1 & B2)), unit delays.
        let a1 = Waveform::from_toggles(false, &[100, 300]);
        let a2 = Waveform::from_toggles(false, &[100, 200, 300]);
        let b1 = Waveform::from_toggles(true, &[100, 300]);
        let b2 = Waveform::constant(true);
        let (g, mem, ptrs) = single_gate("AOI22", &[a1, a2, b1, b2], None);
        let y = run_default(&g, &mem, &ptrs);
        // Initially B1 & B2 holds Y at 0. At 100 A1, A2 rise and B1 falls
        // together: A1 & A2 takes over, Y stays 0 (consumed one pin at a
        // time, B1 first would glitch Y high). A2 falls at 200 → Y rises
        // 201. At 300 A1 falls, A2 rises, B1 rises: B1 & B2 → Y falls 301.
        assert_eq!(y.raw(), &[0, 201, 301, EOW]);
    }

    #[test]
    fn conditional_delay_selected_by_side_inputs() {
        // The paper's AOI21 example: delay on B depends on A1/A2 values.
        const SDF: &str = r#"(DELAYFILE (CELL (CELLTYPE "AOI21") (INSTANCE u)
  (DELAY (ABSOLUTE
    (IOPATH (posedge B) Y () (6))
    (IOPATH (negedge B) Y (8) ())
    (COND A2===1'b1&&A1===1'b0 (IOPATH (posedge B) Y () (5)))
    (COND A2===1'b1&&A1===1'b0 (IOPATH (negedge B) Y (7) ()))
  ))))"#;
        // Pins (A1, A2, B). Hold A1=0, A2=1 -> conditional arcs apply.
        let a1 = Waveform::constant(false);
        let a2 = Waveform::constant(true);
        let b = Waveform::from_toggles(false, &[100, 200]);
        let (g, mem, ptrs) = single_gate("AOI21", &[a1, a2, b], Some(SDF));
        let y = run_default(&g, &mem, &ptrs);
        // A1=0,A2=1: Y = !((0&1)|B) = !B. B rise@100 -> Y fall @ 100+5;
        // B fall@200 -> Y rise @ 200+7.
        assert_eq!(y.raw(), &[-1, 0, 105, 207, EOW]);
    }

    #[test]
    fn unconditional_delay_when_condition_false() {
        const SDF: &str = r#"(DELAYFILE (CELL (CELLTYPE "AOI21") (INSTANCE u)
  (DELAY (ABSOLUTE
    (IOPATH (posedge B) Y () (6))
    (IOPATH (negedge B) Y (8) ())
    (COND A2===1'b1&&A1===1'b0 (IOPATH (posedge B) Y () (5)))
    (COND A2===1'b1&&A1===1'b0 (IOPATH (negedge B) Y (7) ()))
  ))))"#;
        // A1=0, A2=0: default arcs (6/8) apply.
        let a1 = Waveform::constant(false);
        let a2 = Waveform::constant(false);
        let b = Waveform::from_toggles(false, &[100, 200]);
        let (g, mem, ptrs) = single_gate("AOI21", &[a1, a2, b], Some(SDF));
        let y = run_default(&g, &mem, &ptrs);
        assert_eq!(y.raw(), &[-1, 0, 106, 208, EOW]);
    }

    #[test]
    fn partial_sdf_mode_uses_averages() {
        const SDF: &str = r#"(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (3) (5))))))"#;
        let a = Waveform::from_toggles(false, &[100]);
        let (g, mem, ptrs) = single_gate("INV", &[a], Some(SDF));
        let features = SimFeatures {
            full_sdf: false,
            ..SimFeatures::default()
        };
        let ctx = Ctx::new(&g, vec![(4, 4)]); // collapsed rise/fall average
        let input = ctx.input(&g, &mem, &ptrs, features, 100);
        let out = simulate_gate(&input, KernelMode::Store { out_base: 6000 });
        let raw = mem.d2h(6000, out.words() as usize);
        // Fall uses the average 4 instead of the true 5.
        assert_eq!(&raw[..3], &[-1, 0, 104]);
    }

    #[test]
    fn count_pass_matches_store_pass_on_glitchy_input() {
        const SDF: &str = r#"(DELAYFILE (CELL (CELLTYPE "AND2") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (4) (4)) (IOPATH B Y (4) (4))))))"#;
        // Dense toggling with pulses around the filter width exercises the
        // push/pop/ghost machinery.
        let a = Waveform::from_toggles(false, &[10, 12, 20, 21, 30, 36, 40, 49]);
        let b = Waveform::from_toggles(true, &[15, 16, 35, 47]);
        let (g, mem, ptrs) = single_gate("AND2", &[a, b], Some(SDF));
        let w = run_default(&g, &mem, &ptrs);
        // The run() helper already asserts count == store; sanity-check the
        // result is a valid monotonic waveform.
        assert!(w.toggle_count() <= 8);
    }

    #[test]
    fn max_extent_can_exceed_final_toggles() {
        const SDF: &str = r#"(DELAYFILE (CELL (CELLTYPE "BUF") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (10) (10))))))"#;
        // Edges at 100 and 105: the second lands within 10 of the first
        // output edge -> pops it. max_extent 1, final toggles 0.
        let a = Waveform::from_toggles(false, &[100, 105]);
        let (g, mem, ptrs) = single_gate("BUF", &[a], Some(SDF));
        let ctx = Ctx::new(&g, vec![(0, 0)]);
        let input = ctx.input(&g, &mem, &ptrs, SimFeatures::default(), 100);
        let out = simulate_gate(&input, COUNT);
        assert_eq!(out.toggles, 0);
        assert_eq!(out.max_extent, 1);
        assert_eq!(out.words(), 3); // initial + transient + EOW
    }

    #[test]
    fn ghost_chain_never_corrupts_marker() {
        const SDF: &str = r#"(DELAYFILE (CELL (CELLTYPE "BUF") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (10) (10))))))"#;
        // A long train of sub-delay pulses: every edge gets filtered; the
        // pop chain must stop at the initial entry and keep the -1 marker.
        let a = Waveform::from_toggles(true, &[100, 105, 110, 115, 120, 125]);
        let (g, mem, ptrs) = single_gate("BUF", &[a], Some(SDF));
        let y = run_default(&g, &mem, &ptrs);
        assert!(y.initial_value(), "marker survived");
        assert_eq!(y.toggle_count(), 0);
    }

    #[test]
    fn launch_traffic_is_pinned_on_a_multi_pin_gate() {
        // Conditional arcs, a wire that filters narrow pulses, MSI and an
        // overflowing reservation on a 4-pin gate: the modeled profile is
        // built from these counts, so the words every mode reports and the
        // traffic derived from them must not move.
        const SDF: &str = r#"(DELAYFILE
  (CELL (CELLTYPE "AOI22") (INSTANCE u)
    (DELAY (ABSOLUTE
      (IOPATH A1 Y (3) (4)) (IOPATH A2 Y (2) (5)) (IOPATH B1 Y (6) (2))
      (COND A1===1'b1 (IOPATH B2 Y (1) (7))))))
  (CELL (CELLTYPE "__wire__") (INSTANCE *)
    (DELAY (ABSOLUTE (INTERCONNECT i0 u/A1 (4) (4)))))
)"#;
        let a1 = Waveform::from_toggles(false, &[10, 12, 30, 50, 51, 70, 90]);
        let a2 = Waveform::from_toggles(true, &[20, 30, 60, 61, 80]);
        let b1 = Waveform::from_toggles(false, &[15, 30, 45, 46, 47, 85]);
        let b2 = Waveform::from_toggles(true, &[25, 40, 55, 75, 95]);
        let waves = [a1, a2, b1, b2];
        let input_words = waves.iter().map(|w| w.raw().len() as u64).sum();
        let (g, mem, ptrs) = single_gate("AOI22", &waves, Some(SDF));
        let ctx = Ctx::new(&g, vec![(0, 0); 4]);
        let input = ctx.input(&g, &mem, &ptrs, SimFeatures::default(), 100);
        let words: Vec<u32> = [
            COUNT,
            KernelMode::Store { out_base: 6000 },
            KernelMode::Speculative {
                out_base: 7000,
                cap: 4,
            },
        ]
        .into_iter()
        .map(|mode| simulate_gate(&input, mode).words())
        .collect();
        assert_eq!(words, [7; 3]);
        let counts = LaunchCounts {
            threads: 1,
            pin_reads: 4,
            input_words,
            output_words: u64::from(words[0]),
        };
        let traffic: Vec<(u64, u64, u64)> = [(true, true), (false, true), (false, false)]
            .into_iter()
            .map(|(net_delay_filtering, full_sdf)| {
                counts.traffic(SimFeatures {
                    net_delay_filtering,
                    full_sdf,
                })
            })
            .collect();
        // (loads, stores, instructions): full features, no net delay, and
        // no net delay with no full SDF.
        assert_eq!(traffic, [(63, 7, 176), (38, 7, 176), (33, 7, 176)]);
    }

    #[test]
    fn speculative_overflow_stays_inside_reservation() {
        let a = Waveform::from_toggles(false, &[100, 200, 300, 400]);
        let (g, mem, ptrs) = single_gate("INV", &[a], Some(INV_SDF));
        let ctx = Ctx::new(&g, vec![(0, 0)]);
        let input = ctx.input(&g, &mem, &ptrs, SimFeatures::default(), 100);
        let count = simulate_gate(&input, COUNT);
        let base = 6000usize;
        let cap = 2usize;
        assert!(count.words() as usize > cap, "test needs a real overflow");
        // Sentinel-fill a window around the deliberately tiny reservation.
        let sentinel = vec![0x5EED_i32; 64];
        mem.h2d(base - 16, &sentinel);
        let spec = simulate_gate(
            &input,
            KernelMode::Speculative {
                out_base: base,
                cap,
            },
        );
        // The overflowing run still counts exactly like the count pass...
        assert_eq!(spec, count, "overflow degrades to an exact count");
        // ...and never wrote a word outside `base..base + cap`.
        let after = mem.d2h(base - 16, 64);
        for (i, (&before, &now)) in sentinel.iter().zip(after.iter()).enumerate() {
            let idx = base - 16 + i;
            if !(base..base + cap).contains(&idx) {
                assert_eq!(now, before, "word {idx} outside the reservation changed");
            }
        }
    }

    #[test]
    fn speculative_zero_cap_writes_nothing() {
        let a = Waveform::from_toggles(false, &[100]);
        let (g, mem, ptrs) = single_gate("INV", &[a], Some(INV_SDF));
        let ctx = Ctx::new(&g, vec![(0, 0)]);
        let input = ctx.input(&g, &mem, &ptrs, SimFeatures::default(), 100);
        let base = 6000usize;
        let sentinel = vec![0x5EED_i32; 16];
        mem.h2d(base, &sentinel);
        let spec = simulate_gate(
            &input,
            KernelMode::Speculative {
                out_base: base,
                cap: 0,
            },
        );
        assert!(spec.words() > 0);
        assert_eq!(mem.d2h(base, 16), sentinel, "zero-cap run touched memory");
    }

    #[test]
    fn gate_desc_mirrors_graph_accessors() {
        let a = Waveform::from_toggles(false, &[100]);
        let b = Waveform::from_toggles(true, &[150]);
        let (g, _mem, _ptrs) = single_gate("NAND2", &[a, b], None);
        let d = GateDesc::of(&g, 0);
        assert_eq!(d.fanin as usize, g.gate_fanin(0).len());
        assert_eq!(d.pin_base as usize, g.pin_base(0));
        assert_eq!(d.lut_ncols, 2); // 2^(2-1)
        let tt = g.truth_table(0);
        let flat = g.truth_tables_flat();
        assert_eq!(&flat[d.tt_base as usize..d.tt_base as usize + tt.len()], tt);
        for pin in 0..2 {
            let lut = g.delay_lut(0, pin);
            let base = d.lut_base as usize + pin * 4 * d.lut_ncols as usize;
            assert_eq!(
                &g.delay_luts_flat()[base..base + lut.len()],
                lut,
                "pin {pin} LUT block"
            );
        }
        assert_eq!((d.fb_rise, d.fb_fall), g.fallback_delay(0));
    }

    #[test]
    fn pack_round_trips_at_extent_boundary() {
        let out = KernelOutput {
            toggles: 7,
            max_extent: KernelOutput::MAX_PACKED_EXTENT,
            initial_one: true,
        };
        let rt = KernelOutput::unpack(out.pack());
        assert_eq!(rt, out, "boundary extent must not bleed into bit 63");
        let no_init = KernelOutput {
            initial_one: false,
            ..out
        };
        assert_eq!(KernelOutput::unpack(no_init.pack()), no_init);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "packed extent field")]
    fn pack_rejects_extent_overflow() {
        let out = KernelOutput {
            toggles: 0,
            max_extent: KernelOutput::MAX_PACKED_EXTENT + 1,
            initial_one: false,
        };
        let _ = out.pack();
    }
}
