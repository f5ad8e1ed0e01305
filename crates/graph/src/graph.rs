use std::collections::HashMap;
use std::fmt;

use gatspi_netlist::{CellType, GateId, Netlist};
use gatspi_sdf::{build_delay_lut, delay_to_ticks, IoPath, SdfFile, TripleSelect, NO_ARC};

use crate::{levelize, GraphError, LevelStats, Result};

/// Index of a signal (waveform slot) in a [`CircuitGraph`]. Signals are the
/// union of primary inputs and gate outputs; the index coincides with the
/// source netlist's net index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub u32);

impl SignalId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig#{}", self.0)
    }
}

/// Options controlling netlist+SDF translation.
#[derive(Debug, Clone, Copy)]
pub struct GraphOptions {
    /// Which `min:typ:max` corner to simulate.
    pub select: TripleSelect,
    /// Multiplier from SDF units to integer ticks. `None` uses the SDF
    /// file's own timescale (ticks = picoseconds), or 1.0 without an SDF.
    pub scale: Option<f64>,
    /// `(rise, fall)` tick delays used for gates the SDF does not annotate
    /// at all (and as the last-resort fallback for unannotated arcs).
    pub default_delay: (i32, i32),
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            select: TripleSelect::Typ,
            scale: None,
            default_delay: (1, 1),
        }
    }
}

/// The flat, levelized simulation graph — connectivity, truth tables and
/// delay LUTs as contiguous arrays (the information content of the paper's
/// DGL graph object).
///
/// # Example
///
/// ```
/// use gatspi_netlist::{CellLibrary, NetlistBuilder};
/// use gatspi_graph::{CircuitGraph, GraphOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("xor_tree", CellLibrary::industry_mini());
/// let a = b.add_input("a")?;
/// let c = b.add_input("b")?;
/// let y = b.add_output("y")?;
/// b.add_gate("u", "XOR2", &[a, c], y)?;
/// let g = CircuitGraph::build(&b.finish()?, None, &GraphOptions::default())?;
/// assert_eq!(g.n_gates(), 1);
/// assert_eq!(g.n_levels(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitGraph {
    name: String,
    n_signals: usize,
    signal_names: Vec<String>,
    primary_inputs: Vec<SignalId>,
    primary_outputs: Vec<SignalId>,
    driver_gate: Vec<i32>,

    // CSR fan-in: pins of gate g live at slots fanin_offsets[g]..fanin_offsets[g+1].
    fanin_offsets: Vec<u32>,
    fanin_signals: Vec<u32>,
    net_delay_rise: Vec<i32>,
    net_delay_fall: Vec<i32>,

    // Node features.
    tt_offsets: Vec<u32>,
    truth_tables: Vec<u8>,
    gate_cell: Vec<u32>,
    gate_names: Vec<String>,

    // Delay LUTs: per pin slot, 4 * 2^(n-1) entries at lut_offsets[slot].
    lut_offsets: Vec<u32>,
    delay_luts: Vec<i32>,
    fallback_rise: Vec<i32>,
    fallback_fall: Vec<i32>,

    gate_output: Vec<u32>,
    gate_level: Vec<u32>,
    level_offsets: Vec<u32>,
    level_gates: Vec<u32>,
}

impl CircuitGraph {
    /// Translates a netlist (plus optional SDF) into the flat graph.
    ///
    /// # Errors
    ///
    /// * [`GraphError::CombinationalLoop`] for cyclic netlists.
    /// * [`GraphError::SdfBinding`] if SDF statements reference unknown
    ///   instances or pins.
    /// * [`GraphError::Sdf`] for delay translation failures.
    pub fn build(netlist: &Netlist, sdf: Option<&SdfFile>, options: &GraphOptions) -> Result<Self> {
        let lib = netlist.library();
        let n_gates = netlist.gate_count();
        let n_signals = netlist.net_count();
        let scale = options
            .scale
            .unwrap_or_else(|| sdf.map(|f| f.timescale_ps).unwrap_or(1.0));

        let gate_level = levelize(netlist)?;

        // CSR fan-in + outputs + functions.
        let mut fanin_offsets = Vec::with_capacity(n_gates + 1);
        let mut fanin_signals = Vec::new();
        let mut tt_offsets = Vec::with_capacity(n_gates);
        let mut truth_tables = Vec::new();
        let mut gate_output = Vec::with_capacity(n_gates);
        let mut gate_cell = Vec::with_capacity(n_gates);
        let mut gate_names = Vec::with_capacity(n_gates);
        let mut driver_gate = vec![-1i32; n_signals];
        fanin_offsets.push(0u32);
        for (gid, gate) in netlist.gates() {
            for &net in gate.inputs() {
                fanin_signals.push(net.index() as u32);
            }
            fanin_offsets.push(fanin_signals.len() as u32);
            let cell = lib.cell(gate.cell());
            tt_offsets.push(truth_tables.len() as u32);
            truth_tables.extend_from_slice(cell.function().values());
            gate_output.push(gate.output().index() as u32);
            gate_cell.push(gate.cell().index() as u32);
            gate_names.push(gate.name().to_string());
            driver_gate[gate.output().index()] = gid.index() as i32;
        }

        let n_pins = fanin_signals.len();
        let mut net_delay_rise = vec![0i32; n_pins];
        let mut net_delay_fall = vec![0i32; n_pins];

        // Delay LUTs.
        let mut lut_offsets = vec![0u32; n_pins];
        let mut delay_luts: Vec<i32> = Vec::new();
        let mut fallback_rise = vec![0i32; n_gates];
        let mut fallback_fall = vec![0i32; n_gates];

        let binding = sdf.map(|f| (f, SdfIndex::new(f)));
        for (gid, gate) in netlist.gates() {
            let g = gid.index();
            let cell = lib.cell(gate.cell());
            let base = fanin_offsets[g] as usize;
            let block = delay_luts.len();
            let pin_len = lut_len(cell.num_inputs());
            for pin in 0..cell.num_inputs() {
                lut_offsets[base + pin] = (block + pin * pin_len) as u32;
            }
            let iopaths = binding.as_ref().map_or_else(Vec::new, |(f, index)| {
                index.iopaths_for(f, cell.name(), gate.name())
            });
            (fallback_rise[g], fallback_fall[g]) =
                annotate_gate(cell, gate.name(), &iopaths, options, scale, &mut delay_luts)?;
        }

        // Interconnect (wire) delays.
        if let Some(f) = sdf {
            // (instance, pin) -> pin slot.
            let mut pin_slot: HashMap<(&str, &str), usize> = HashMap::new();
            for (gid, gate) in netlist.gates() {
                let cell = lib.cell(gate.cell());
                let base = fanin_offsets[gid.index()] as usize;
                for (pin, name) in cell.input_pins().iter().enumerate() {
                    pin_slot.insert((gate.name(), name.as_str()), base + pin);
                }
            }
            for ic in &f.interconnects {
                let Some(inst) = ic.to.instance.as_deref() else {
                    // Wire delay into a top-level output port: no gate
                    // consumes it, so it cannot affect simulation results.
                    continue;
                };
                let slot = pin_slot
                    .get(&(inst, ic.to.pin.as_str()))
                    .copied()
                    .ok_or_else(|| GraphError::SdfBinding {
                        detail: format!("INTERCONNECT target `{}/{}` not found", inst, ic.to.pin),
                    })?;
                if let Some(v) = ic.rise.select(options.select) {
                    net_delay_rise[slot] = delay_to_ticks(v, scale)?;
                }
                if let Some(v) = ic.fall.select(options.select) {
                    net_delay_fall[slot] = delay_to_ticks(v, scale)?;
                }
            }
        }

        // Level CSR, gates ordered by (level, gate id).
        let n_levels = gate_level.iter().map(|&l| l + 1).max().unwrap_or(0) as usize;
        let mut level_counts = vec![0u32; n_levels];
        for &l in &gate_level {
            level_counts[l as usize] += 1;
        }
        let mut level_offsets = Vec::with_capacity(n_levels + 1);
        level_offsets.push(0u32);
        for &c in &level_counts {
            level_offsets.push(level_offsets.last().unwrap() + c);
        }
        let mut cursor = level_offsets[..n_levels].to_vec();
        let mut level_gates = vec![0u32; n_gates];
        for (g, &l) in gate_level.iter().enumerate() {
            let l = l as usize;
            level_gates[cursor[l] as usize] = g as u32;
            cursor[l] += 1;
        }

        Ok(CircuitGraph {
            name: netlist.name().to_string(),
            n_signals,
            signal_names: netlist.nets().map(|(_, n)| n.name().to_string()).collect(),
            primary_inputs: netlist
                .primary_inputs()
                .iter()
                .map(|n| SignalId(n.index() as u32))
                .collect(),
            primary_outputs: netlist
                .primary_outputs()
                .iter()
                .map(|n| SignalId(n.index() as u32))
                .collect(),
            driver_gate,
            fanin_offsets,
            fanin_signals,
            net_delay_rise,
            net_delay_fall,
            tt_offsets,
            truth_tables,
            gate_cell,
            gate_names,
            lut_offsets,
            delay_luts,
            fallback_rise,
            fallback_fall,
            gate_output,
            gate_level,
            level_offsets,
            level_gates,
        })
    }

    /// Re-reads the IOPATH annotation of `gates` from `sdf` and overwrites
    /// their delay-LUT blocks and fallback delays in place — what
    /// [`CircuitGraph::build`] on the edited SDF would produce for those
    /// gates, at the cost of those gates only. Everything else (topology,
    /// levels, interconnect delays, every other gate's annotation) is kept,
    /// so `netlist`, `options` and the rest of `sdf` must be the ones the
    /// graph was built from.
    ///
    /// `index` is an [`SdfIndex`] of `sdf`'s cells, so a call costs the
    /// listed gates' own cells and no scan of the file. It may come from an
    /// earlier version of `sdf`: it stays valid while the cell list
    /// (instances, cell types, order) is unchanged, whatever the delay
    /// triples.
    ///
    /// # Errors
    ///
    /// [`GraphError::SdfBinding`] / [`GraphError::Sdf`] as for
    /// [`CircuitGraph::build`]; the graph is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `netlist` has a different gate count, a gate index is out
    /// of range, or `index` names a cell that `sdf` does not have.
    pub fn reannotate(
        &mut self,
        netlist: &Netlist,
        sdf: &SdfFile,
        index: &SdfIndex<'_>,
        gates: &[usize],
        options: &GraphOptions,
    ) -> Result<()> {
        assert_eq!(
            netlist.gate_count(),
            self.n_gates(),
            "netlist is not the one this graph was built from"
        );
        let lib = netlist.library();
        let scale = options.scale.unwrap_or(sdf.timescale_ps);
        // Annotate everything before touching the graph, so an error on any
        // gate leaves every gate as it was.
        let mut luts = Vec::new();
        let mut annotated = Vec::with_capacity(gates.len());
        for &g in gates {
            let gate = netlist.gate(GateId::from_index(g));
            let cell = lib.cell(gate.cell());
            let iopaths = index.iopaths_for(sdf, cell.name(), gate.name());
            let fallback = annotate_gate(cell, gate.name(), &iopaths, options, scale, &mut luts)?;
            annotated.push((g, luts.len(), fallback));
        }
        let mut src = 0;
        for (g, end, (rise, fall)) in annotated {
            let dst = self.delay_lut_base(g);
            self.delay_luts[dst..dst + (end - src)].copy_from_slice(&luts[src..end]);
            src = end;
            self.fallback_rise[g] = rise;
            self.fallback_fall[g] = fall;
        }
        Ok(())
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates.
    pub fn n_gates(&self) -> usize {
        self.gate_output.len()
    }

    /// Number of signals (primary inputs + all gate outputs + floating nets).
    pub fn n_signals(&self) -> usize {
        self.n_signals
    }

    /// Number of logic levels.
    pub fn n_levels(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// Gate indices in `level`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.n_levels()`.
    pub fn level_gates(&self, level: usize) -> &[u32] {
        let a = self.level_offsets[level] as usize;
        let b = self.level_offsets[level + 1] as usize;
        &self.level_gates[a..b]
    }

    /// The logic level of gate `g`.
    pub fn gate_level(&self, g: usize) -> u32 {
        self.gate_level[g]
    }

    /// Input signal ids of gate `g`, in pin order.
    pub fn gate_fanin(&self, g: usize) -> &[u32] {
        let a = self.fanin_offsets[g] as usize;
        let b = self.fanin_offsets[g + 1] as usize;
        &self.fanin_signals[a..b]
    }

    /// The flat pin-slot base of gate `g` (pin `p`'s slot is `base + p`).
    pub fn pin_base(&self, g: usize) -> usize {
        self.fanin_offsets[g] as usize
    }

    /// Interconnect `(rise, fall)` delay of a pin slot.
    pub fn net_delays(&self, slot: usize) -> (i32, i32) {
        (self.net_delay_rise[slot], self.net_delay_fall[slot])
    }

    /// The truth-table row array of gate `g` (`2^n` entries).
    pub fn truth_table(&self, g: usize) -> &[u8] {
        let n = self.gate_fanin(g).len();
        let a = self.tt_offsets[g] as usize;
        &self.truth_tables[a..a + (1 << n)]
    }

    /// The Fig. 4 delay LUT of gate `g`, pin `p` (`4 * 2^(n-1)` entries;
    /// empty slice for 0-input gates).
    pub fn delay_lut(&self, g: usize, p: usize) -> &[i32] {
        let n = self.gate_fanin(g).len();
        if n == 0 {
            return &[];
        }
        let slot = self.pin_base(g) + p;
        let a = self.lut_offsets[slot] as usize;
        &self.delay_luts[a..a + 4 * (1 << (n - 1))]
    }

    /// Fallback `(rise, fall)` delay for arcs with no SDF annotation.
    pub fn fallback_delay(&self, g: usize) -> (i32, i32) {
        (self.fallback_rise[g], self.fallback_fall[g])
    }

    /// The flat truth-table pool: gate `g`'s `2^n` rows start at
    /// [`CircuitGraph::truth_table_base`]. Exposed so a compiled schedule
    /// can bake the base offset into a per-gate descriptor and index the
    /// pool directly instead of re-deriving the slice per kernel call.
    pub fn truth_tables_flat(&self) -> &[u8] {
        &self.truth_tables
    }

    /// Offset of gate `g`'s truth table in
    /// [`CircuitGraph::truth_tables_flat`].
    pub fn truth_table_base(&self, g: usize) -> usize {
        self.tt_offsets[g] as usize
    }

    /// The flat delay-LUT pool: a gate's per-pin LUT blocks are contiguous
    /// (`4 * 2^(n-1)` entries per pin, pin order), starting at
    /// [`CircuitGraph::delay_lut_base`].
    pub fn delay_luts_flat(&self) -> &[i32] {
        &self.delay_luts
    }

    /// Offset of gate `g`'s pin-0 LUT block in
    /// [`CircuitGraph::delay_luts_flat`] (0 for 0-input gates). Pin `p`'s
    /// block starts `p * 4 * 2^(n-1)` entries later — the build appends one
    /// gate's pins back to back.
    pub fn delay_lut_base(&self, g: usize) -> usize {
        let n = self.gate_fanin(g).len();
        if n == 0 {
            return 0;
        }
        self.lut_offsets[self.pin_base(g)] as usize
    }

    /// Output signal of gate `g`.
    pub fn gate_output(&self, g: usize) -> SignalId {
        SignalId(self.gate_output[g])
    }

    /// Library cell-type index of gate `g`.
    pub fn gate_cell(&self, g: usize) -> usize {
        self.gate_cell[g] as usize
    }

    /// Instance name of gate `g`.
    pub fn gate_name(&self, g: usize) -> &str {
        &self.gate_names[g]
    }

    /// Name of a signal.
    pub fn signal_name(&self, s: SignalId) -> &str {
        &self.signal_names[s.index()]
    }

    /// The gate driving signal `s`, or `None` for primary inputs and
    /// floating nets.
    pub fn driver(&self, s: SignalId) -> Option<usize> {
        let d = self.driver_gate[s.index()];
        (d >= 0).then_some(d as usize)
    }

    /// Primary (and pseudo-primary) input signals.
    pub fn primary_inputs(&self) -> &[SignalId] {
        &self.primary_inputs
    }

    /// Primary output signals.
    pub fn primary_outputs(&self) -> &[SignalId] {
        &self.primary_outputs
    }

    /// Level-structure statistics (widths drive kernel-launch overhead).
    pub fn level_stats(&self) -> LevelStats {
        LevelStats::from_offsets(&self.level_offsets)
    }

    // --- SoA accessors: the raw flat arrays, for engines that build their
    // own derived schedules (e.g. gatspi-core's `LevelSchedule`) without
    // per-gate accessor calls in hot loops.

    /// Level CSR offsets: gates of level `l` occupy
    /// `level_gates_flat()[level_offsets()[l]..level_offsets()[l + 1]]`.
    pub fn level_offsets(&self) -> &[u32] {
        &self.level_offsets
    }

    /// All gate indices in (level, gate id) order — the flat array behind
    /// [`CircuitGraph::level_gates`].
    pub fn level_gates_flat(&self) -> &[u32] {
        &self.level_gates
    }

    /// Fan-in CSR offsets: pins of gate `g` occupy
    /// `fanin_signals_flat()[fanin_offsets()[g]..fanin_offsets()[g + 1]]`.
    pub fn fanin_offsets(&self) -> &[u32] {
        &self.fanin_offsets
    }

    /// All fan-in signal ids, pin-slot order — the flat array behind
    /// [`CircuitGraph::gate_fanin`].
    pub fn fanin_signals_flat(&self) -> &[u32] {
        &self.fanin_signals
    }

    /// Output signal index per gate — the flat array behind
    /// [`CircuitGraph::gate_output`].
    pub fn gate_outputs_flat(&self) -> &[u32] {
        &self.gate_output
    }

    /// Approximate device-resident footprint of the graph arrays in bytes
    /// (connectivity, truth tables, delay LUTs, pointers) — what an engine
    /// must transfer host→device before simulating.
    pub fn device_bytes(&self) -> u64 {
        let words = self.fanin_offsets.len()
            + self.fanin_signals.len()
            + self.net_delay_rise.len()
            + self.net_delay_fall.len()
            + self.tt_offsets.len()
            + self.lut_offsets.len()
            + self.delay_luts.len()
            + self.fallback_rise.len()
            + self.fallback_fall.len()
            + self.gate_output.len()
            + self.gate_level.len()
            + self.level_offsets.len()
            + self.level_gates.len();
        4 * words as u64 + self.truth_tables.len() as u64
    }

    /// Zero-delay functional evaluation: given values for the primary inputs
    /// (in [`CircuitGraph::primary_inputs`] order), computes the steady-state
    /// value of every signal. Floating nets evaluate to 0.
    ///
    /// # Panics
    ///
    /// Panics if `pi_values.len()` differs from the primary-input count.
    pub fn eval_zero_delay(&self, pi_values: &[bool]) -> Vec<bool> {
        assert_eq!(
            pi_values.len(),
            self.primary_inputs.len(),
            "primary input count mismatch"
        );
        let mut values = vec![false; self.n_signals];
        for (s, &v) in self.primary_inputs.iter().zip(pi_values) {
            values[s.index()] = v;
        }
        for level in 0..self.n_levels() {
            for &g in self.level_gates(level) {
                let g = g as usize;
                let mut idx = 0u32;
                for (p, &sig) in self.gate_fanin(g).iter().enumerate() {
                    if values[sig as usize] {
                        idx |= 1 << p;
                    }
                }
                let y = self.truth_table(g)[idx as usize];
                values[self.gate_output[g] as usize] = y != 0;
            }
        }
        values
    }
}

/// Entries in one pin's delay LUT for an `n_inputs`-input cell
/// (`4 * 2^(n-1)`; 0 for a 0-input cell, which has no pins).
fn lut_len(n_inputs: usize) -> usize {
    if n_inputs == 0 {
        0
    } else {
        4 << (n_inputs - 1)
    }
}

/// Which `(CELL ...)` entries of an SDF file apply to which instance, as
/// cell indices, so binding a gate costs its own entries and not a scan of
/// the file. [`CircuitGraph::build`] makes one per call, and an ECO loop
/// makes one per [`SdfFile`] for [`CircuitGraph::reannotate`].
///
/// The index borrows the instance names of the file it was built from and
/// holds no delays, so it stays valid for any file with the same cell list
/// (instances, cell types, order): `SdfFile::cells` is a public field a
/// caller may edit triple by triple.
#[derive(Debug)]
pub struct SdfIndex<'a> {
    /// Cell indices per `INSTANCE` name, ascending.
    by_instance: HashMap<&'a str, Vec<usize>>,
    /// Indices of cells that apply to every instance (`INSTANCE *` or none),
    /// ascending.
    wildcard: Vec<usize>,
}

impl<'a> SdfIndex<'a> {
    /// Indexes every cell of `sdf`.
    pub fn new(sdf: &'a SdfFile) -> Self {
        let mut index = SdfIndex {
            by_instance: HashMap::new(),
            wildcard: Vec::new(),
        };
        for (i, cell) in sdf.cells.iter().enumerate() {
            match cell.instance.as_deref() {
                None | Some("*") => index.wildcard.push(i),
                Some(inst) => index.by_instance.entry(inst).or_default().push(i),
            }
        }
        index
    }

    /// Indices of the cells whose `INSTANCE` is exactly `inst`, ascending
    /// (wildcard cells excluded); `None` if the file names no such cell.
    pub fn instance_cells(&self, inst: &str) -> Option<&[usize]> {
        self.by_instance.get(inst).map(Vec::as_slice)
    }

    /// All IOPATHs of `sdf` applying to instance `inst` of cell type
    /// `celltype` — instance-specific entries plus wildcard entries, of that
    /// type or of `CELLTYPE "*"` — in file order, because `build_delay_lut`
    /// lets later statements override earlier ones.
    fn iopaths_for<'s>(&self, sdf: &'s SdfFile, celltype: &str, inst: &str) -> Vec<&'s IoPath> {
        let mut cells: Vec<usize> = self
            .instance_cells(inst)
            .unwrap_or_default()
            .iter()
            .chain(&self.wildcard)
            .copied()
            .filter(|&i| {
                let t = &sdf.cells[i].celltype;
                t == celltype || t == "*"
            })
            .collect();
        cells.sort_unstable();
        cells
            .into_iter()
            .flat_map(|i| &sdf.cells[i].iopaths)
            .collect()
    }
}

/// Annotates one gate from the IOPATHs bound to it: validates them, appends
/// its pins' delay LUTs to `luts` back to back (pin order) and returns its
/// fallback `(rise, fall)` delays. The single annotation body behind both
/// [`CircuitGraph::build`] and [`CircuitGraph::reannotate`].
fn annotate_gate(
    cell: &CellType,
    inst: &str,
    iopaths: &[&IoPath],
    options: &GraphOptions,
    scale: f64,
    luts: &mut Vec<i32>,
) -> Result<(i32, i32)> {
    // Validate that every IOPATH pin exists on the cell.
    for p in iopaths {
        if cell.input_index(&p.input).is_none() {
            return Err(GraphError::SdfBinding {
                detail: format!(
                    "IOPATH input `{}` not a pin of cell `{}` (instance `{}`)",
                    p.input,
                    cell.name(),
                    inst
                ),
            });
        }
        if p.output != cell.output_pin() {
            return Err(GraphError::SdfBinding {
                detail: format!(
                    "IOPATH output `{}` is not `{}` on cell `{}`",
                    p.output,
                    cell.output_pin(),
                    cell.name()
                ),
            });
        }
    }
    // Per-direction maxima over every annotated arc, for the fallback.
    let mut gate_max: Option<(i32, i32)> = None;
    for pin in 0..cell.num_inputs() {
        let lut = build_delay_lut(cell.input_pins(), pin, iopaths, options.select, scale)?;
        let ncols = lut.ncols();
        for (i, &d) in lut.data().iter().enumerate() {
            if d != NO_ARC {
                let e = gate_max.get_or_insert((-1, -1));
                if (i / ncols) % 2 == 0 {
                    e.0 = e.0.max(d);
                } else {
                    e.1 = e.1.max(d);
                }
            }
        }
        luts.extend_from_slice(lut.data());
    }
    Ok(match gate_max {
        // A direction never annotated anywhere falls back to the other
        // direction's maximum.
        Some((r, f)) => (if r >= 0 { r } else { f }, if f >= 0 { f } else { r }),
        None => options.default_delay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatspi_netlist::{CellLibrary, NetlistBuilder};
    use gatspi_sdf::{DelayTriple, EdgeSpec, Interconnect, PortPath, SdfCell, SdfError};

    fn full_adder() -> Netlist {
        let mut b = NetlistBuilder::new("fa", CellLibrary::industry_mini());
        let a = b.add_input("a").unwrap();
        let bb = b.add_input("b").unwrap();
        let cin = b.add_input("cin").unwrap();
        let axb = b.add_net("axb").unwrap();
        let sum = b.add_output("sum").unwrap();
        let cout = b.add_output("cout").unwrap();
        b.add_gate("u_x1", "XOR2", &[a, bb], axb).unwrap();
        b.add_gate("u_x2", "XOR2", &[axb, cin], sum).unwrap();
        b.add_gate("u_maj", "MAJ3", &[a, bb, cin], cout).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn build_and_shape() {
        let g = CircuitGraph::build(&full_adder(), None, &GraphOptions::default()).unwrap();
        assert_eq!(g.n_gates(), 3);
        assert_eq!(g.n_signals(), 6);
        assert_eq!(g.n_levels(), 2);
        assert_eq!(g.level_gates(0).len(), 2); // u_x1, u_maj
        assert_eq!(g.level_gates(1).len(), 1); // u_x2
        assert_eq!(g.primary_inputs().len(), 3);
        assert_eq!(g.primary_outputs().len(), 2);
    }

    #[test]
    fn soa_accessors_mirror_per_gate_views() {
        let g = CircuitGraph::build(&full_adder(), None, &GraphOptions::default()).unwrap();
        assert_eq!(g.level_offsets().len(), g.n_levels() + 1);
        for level in 0..g.n_levels() {
            let a = g.level_offsets()[level] as usize;
            let b = g.level_offsets()[level + 1] as usize;
            assert_eq!(&g.level_gates_flat()[a..b], g.level_gates(level));
        }
        for gate in 0..g.n_gates() {
            let a = g.fanin_offsets()[gate] as usize;
            let b = g.fanin_offsets()[gate + 1] as usize;
            assert_eq!(&g.fanin_signals_flat()[a..b], g.gate_fanin(gate));
            assert_eq!(g.gate_outputs_flat()[gate], g.gate_output(gate).0);
        }
    }

    #[test]
    fn truth_tables_sliced_correctly() {
        let g = CircuitGraph::build(&full_adder(), None, &GraphOptions::default()).unwrap();
        // Gate 0 is XOR2.
        assert_eq!(g.truth_table(0), &[0, 1, 1, 0]);
        // Gate 2 is MAJ3.
        assert_eq!(g.truth_table(2), &[0, 0, 0, 1, 0, 1, 1, 1]);
    }

    #[test]
    fn eval_zero_delay_adds() {
        let g = CircuitGraph::build(&full_adder(), None, &GraphOptions::default()).unwrap();
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let v = g.eval_zero_delay(&[a, b, c]);
                    let sum_sig = g.primary_outputs()[0];
                    let cout_sig = g.primary_outputs()[1];
                    let total = u8::from(a) + u8::from(b) + u8::from(c);
                    assert_eq!(v[sum_sig.index()], total % 2 == 1, "sum for {a}{b}{c}");
                    assert_eq!(v[cout_sig.index()], total >= 2, "cout for {a}{b}{c}");
                }
            }
        }
    }

    #[test]
    fn default_delays_without_sdf() {
        let opts = GraphOptions {
            default_delay: (3, 5),
            ..GraphOptions::default()
        };
        let g = CircuitGraph::build(&full_adder(), None, &opts).unwrap();
        assert_eq!(g.fallback_delay(0), (3, 5));
        // All LUT entries are NO_ARC without SDF.
        assert!(g.delay_lut(0, 0).iter().all(|&d| d == NO_ARC));
        assert_eq!(g.net_delays(0), (0, 0));
    }

    #[test]
    fn sdf_annotation_binds() {
        let netlist = full_adder();
        let sdf_text = r#"
(DELAYFILE
  (TIMESCALE 1ps)
  (CELL (CELLTYPE "XOR2") (INSTANCE *)
    (DELAY (ABSOLUTE (IOPATH A Y (10) (12)) (IOPATH B Y (11) (13)))))
  (CELL (CELLTYPE "MAJ3") (INSTANCE u_maj)
    (DELAY (ABSOLUTE (IOPATH A Y (20) (21)))))
  (CELL (CELLTYPE "__wire__") (INSTANCE *)
    (DELAY (ABSOLUTE (INTERCONNECT u_x1/Y u_x2/A (2) (3)))))
)
"#;
        let sdf = SdfFile::parse(sdf_text).unwrap();
        let g = CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap();
        // XOR2 pin A lut: both edges rise 10 / fall 12.
        let lut = g.delay_lut(0, 0);
        assert_eq!(lut[0], 10); // pos,rise col0
        assert_eq!(lut[2], 12); // pos,fall col0  (row-major: row1 starts at ncols=2)
                                // Fallback is max annotated.
        assert_eq!(g.fallback_delay(0), (11, 13));
        // MAJ3: only pin A annotated; fallback (20, 21).
        assert_eq!(g.fallback_delay(2), (20, 21));
        // Interconnect on u_x2 pin A (gate 1, pin 0).
        let slot = g.pin_base(1);
        assert_eq!(g.net_delays(slot), (2, 3));
        // Unannotated pin of u_x2 keeps zero wire delay.
        assert_eq!(g.net_delays(slot + 1), (0, 0));
    }

    fn cell(celltype: &str, instance: Option<&str>, arcs: &[(&str, f64)]) -> SdfCell {
        SdfCell {
            celltype: celltype.into(),
            instance: instance.map(Into::into),
            iopaths: arcs
                .iter()
                .map(|&(pin, d)| IoPath {
                    cond: None,
                    edge: EdgeSpec::Both,
                    input: pin.into(),
                    output: "Y".into(),
                    rise: DelayTriple::single(d),
                    fall: DelayTriple::single(d),
                })
                .collect(),
        }
    }

    fn one_nand(inst: &str) -> Netlist {
        let mut b = NetlistBuilder::new("n", CellLibrary::industry_mini());
        let a = b.add_input("a").unwrap();
        let c = b.add_input("b").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate(inst, "NAND2", &[a, c], y).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn binding_merges_wildcards_in_file_order() {
        let mut f = SdfFile::new("d");
        f.cells = vec![
            cell("NAND2", None, &[("A", 1.0)]),
            cell("NAND2", Some("u7"), &[("B", 9.0), ("A", 5.0)]),
            cell("NAND2", Some("*"), &[("A", 7.0)]),
            cell("INV", Some("u7"), &[("A", 4.0)]),
            cell("*", None, &[("A", 3.0)]),
        ];
        let b = SdfIndex::new(&f);
        let delays = |celltype: &str, inst: &str| -> Vec<f64> {
            b.iopaths_for(&f, celltype, inst)
                .iter()
                .map(|p| p.rise.typ.unwrap())
                .collect()
        };
        // Wildcards before *and* after the instance cell, interleaved by
        // position in the file; the INV cell shares the name but not the type.
        assert_eq!(delays("NAND2", "u7"), [1.0, 9.0, 5.0, 7.0, 3.0]);
        assert_eq!(delays("NAND2", "u1"), [1.0, 7.0, 3.0]);
        assert_eq!(delays("INV", "u7"), [4.0, 3.0]);
        assert_eq!(delays("INV", "u1"), [3.0]);
    }

    #[test]
    fn later_sdf_cell_overrides_earlier_one() {
        let netlist = one_nand("u7");
        let wild = cell("NAND2", None, &[("A", 1.0)]);
        let inst = cell("NAND2", Some("u7"), &[("A", 5.0)]);
        for (cells, expect) in [(vec![wild.clone(), inst.clone()], 5), (vec![inst, wild], 1)] {
            let mut f = SdfFile::new("d");
            f.cells = cells;
            let g = CircuitGraph::build(&netlist, Some(&f), &GraphOptions::default()).unwrap();
            assert_eq!(g.delay_lut(0, 0)[0], expect);
        }
    }

    #[test]
    fn out_of_range_interconnect_rejected() {
        let netlist = one_nand("u7");
        for bad in [-1.0, 1e300, f64::NAN] {
            let mut f = SdfFile::new("d");
            f.interconnects.push(Interconnect {
                from: PortPath::parse("a"),
                to: PortPath::parse("u7/A"),
                rise: DelayTriple::single(2.0),
                fall: DelayTriple::single(bad),
            });
            let err = CircuitGraph::build(&netlist, Some(&f), &GraphOptions::default());
            assert!(
                matches!(err, Err(GraphError::Sdf(SdfError::BadDelay { .. }))),
                "INTERCONNECT fall delay {bad}: {err:?}"
            );
        }
    }

    #[test]
    fn reannotate_matches_rebuild() {
        let netlist = full_adder();
        let opts = GraphOptions::default();
        let mut f = SdfFile::new("fa");
        f.cells = vec![
            cell("XOR2", None, &[("A", 10.0), ("B", 11.0)]),
            cell("MAJ3", Some("u_maj"), &[("A", 20.0)]),
        ];
        let mut g = CircuitGraph::build(&netlist, Some(&f), &opts).unwrap();
        f.cells[1].iopaths[0].rise = DelayTriple::single(44.0);
        f.cells.push(cell("XOR2", Some("u_x2"), &[("B", 6.0)]));
        g.reannotate(&netlist, &f, &SdfIndex::new(&f), &[1, 2], &opts)
            .unwrap();
        assert_eq!(g.fallback_delay(2), (44, 20));
        assert_eq!(g, CircuitGraph::build(&netlist, Some(&f), &opts).unwrap());

        // A bad statement on the second listed gate leaves the first alone too.
        let before = g.clone();
        f.cells[1].iopaths[0].rise = DelayTriple::single(45.0);
        f.cells.push(cell("XOR2", Some("u_x2"), &[("Q", 1.0)]));
        let err = g.reannotate(&netlist, &f, &SdfIndex::new(&f), &[2, 1], &opts);
        assert!(matches!(err, Err(GraphError::SdfBinding { .. })));
        assert_eq!(g, before);
    }

    #[test]
    fn sdf_unknown_instance_rejected() {
        let netlist = full_adder();
        let sdf = SdfFile::parse(
            r#"(DELAYFILE (CELL (CELLTYPE "__wire__") (INSTANCE *)
  (DELAY (ABSOLUTE (INTERCONNECT u_x1/Y nosuch/A (1) (1))))))"#,
        )
        .unwrap();
        let err = CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default());
        assert!(matches!(err, Err(GraphError::SdfBinding { .. })));
    }

    #[test]
    fn sdf_unknown_pin_rejected() {
        let netlist = full_adder();
        let sdf = SdfFile::parse(
            r#"(DELAYFILE (CELL (CELLTYPE "XOR2") (INSTANCE u_x1)
  (DELAY (ABSOLUTE (IOPATH Q Y (1) (1))))))"#,
        )
        .unwrap();
        let err = CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default());
        assert!(matches!(err, Err(GraphError::SdfBinding { .. })));
    }

    #[test]
    fn interconnect_to_output_port_ignored() {
        let netlist = full_adder();
        let sdf = SdfFile::parse(
            r#"(DELAYFILE (CELL (CELLTYPE "__wire__") (INSTANCE *)
  (DELAY (ABSOLUTE (INTERCONNECT u_x2/Y sum (4) (4))))))"#,
        )
        .unwrap();
        let g = CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap();
        assert_eq!(g.n_gates(), 3);
    }

    #[test]
    fn timescale_scaling_applied() {
        let netlist = full_adder();
        let sdf = SdfFile::parse(
            r#"(DELAYFILE (TIMESCALE 1ns) (CELL (CELLTYPE "XOR2") (INSTANCE *)
  (DELAY (ABSOLUTE (IOPATH A Y (0.5) (0.5))))))"#,
        )
        .unwrap();
        // Default scale: ticks = ps, so 0.5ns = 500.
        let g = CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap();
        assert_eq!(g.delay_lut(0, 0)[0], 500);
        // Explicit scale override.
        let opts = GraphOptions {
            scale: Some(2.0),
            ..GraphOptions::default()
        };
        let g2 = CircuitGraph::build(&netlist, Some(&sdf), &opts).unwrap();
        assert_eq!(g2.delay_lut(0, 0)[0], 1);
    }

    #[test]
    fn driver_map() {
        let g = CircuitGraph::build(&full_adder(), None, &GraphOptions::default()).unwrap();
        for &pi in g.primary_inputs() {
            assert!(g.driver(pi).is_none());
        }
        let sum = g.primary_outputs()[0];
        assert_eq!(g.driver(sum), Some(1));
    }

    #[test]
    fn names_preserved() {
        let g = CircuitGraph::build(&full_adder(), None, &GraphOptions::default()).unwrap();
        assert_eq!(g.gate_name(2), "u_maj");
        assert_eq!(g.signal_name(g.primary_inputs()[0]), "a");
        assert_eq!(g.name(), "fa");
    }
}
