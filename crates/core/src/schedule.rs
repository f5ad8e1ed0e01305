//! Precomputed per-batch launch schedule: the zero-allocation hot path.
//!
//! The seed engine recomputed everything per level of every window batch —
//! per-thread `gate_fanin` CSR walks inside the kernel closure, a
//! `gates × fanin × windows` working-set scan, and fresh `Vec<AtomicU64>` /
//! `vec![0u32; threads]` scratch allocations per level — and always issued
//! two launches per level, even for near-empty levels where launch overhead
//! dominates (the paper's Tables 5–6 profile exactly these phases).
//!
//! [`LevelSchedule`] is built once per design (and once per incremental
//! cone) and serves every window count — a batch of `nw` windows runs
//! `gates × nw` threads per level — giving `run_window_batch` everything
//! flat:
//!
//! * per-level thread tables (`gates`, `out_sigs`, `pin_base`, `pin_sigs`)
//!   so a kernel thread resolves its gate, output signal and input-pointer
//!   slots by dense indexing instead of walking graph CSR per invocation;
//! * per-level working-set sizes computed incrementally from the running
//!   per-signal length sums ([`BatchScratch::len_sum`]) — `O(level pins)`
//!   instead of `O(gates × fanin × windows)`;
//! * a persistent scratch arena ([`BatchScratch`]) replacing all per-level
//!   allocations: signal-major atomic pointer/length tables ([`slot`]),
//!   plus count-output, base and reservation-cap columns as wide as the
//!   widest level, which every level reuses from entry 0, and the
//!   per-signal length and SAIF sums the storing threads add to.
//!
//! Every level is its own launch, as in the paper: one speculative store
//! launch, plus a narrow repair launch when a reservation overflowed.

use crate::kernel::GateDesc;
use crate::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Mutex, MutexGuard};

use gatspi_graph::CircuitGraph;

/// One level's slice of the flattened schedule tables.
#[derive(Debug, Clone)]
pub(crate) struct LevelDesc {
    /// Range of gate slots (indices into `gates` / `out_sigs`).
    pub gate_lo: u32,
    /// One past the last gate slot.
    pub gate_hi: u32,
}

impl LevelDesc {
    /// Gates in the level; a batch of `nw` windows launches `gates() × nw`
    /// threads for it.
    pub fn gates(&self) -> usize {
        self.gate_hi.saturating_sub(self.gate_lo) as usize
    }
}

/// The affected region of an incremental re-simulation: a changed gate set
/// plus its transitive fan-out, extracted from the levelized graph by one
/// level-order sweep (see [`ConeInfo::of`]).
#[derive(Debug, Clone)]
pub(crate) struct ConeInfo {
    /// Per-gate cone membership (changed ∪ transitive fan-out).
    pub gates: Vec<bool>,
    /// Per-signal cone membership: the outputs of in-cone gates — exactly
    /// the signals an incremental run recomputes.
    pub sigs: Vec<bool>,
    /// Out-of-cone signals read by in-cone gates, ascending and deduped:
    /// primary inputs plus unchanged driven signals. These are the cone's
    /// *boundary stimulus* — uploaded from the previous run's spilled
    /// waveforms instead of being recomputed.
    pub boundary: Vec<u32>,
    /// In-cone gate count (the cone sub-schedule's total slots).
    pub n_gates: usize,
}

impl ConeInfo {
    /// Extracts the fan-out cone of `changed` (per-gate flags) from the
    /// levelized graph: one sweep over the levels marks a gate in-cone iff
    /// it changed or any of its pins is an in-cone output, then marks its
    /// output signal. Because pins are driven strictly below their
    /// consumer's level, the single sweep computes the full transitive
    /// fan-out, and a pin that is clean when its consumer is visited can
    /// never become dirty later — so the boundary set is final.
    pub fn of(graph: &CircuitGraph, changed: &[bool]) -> ConeInfo {
        let mut gates = vec![false; graph.n_gates()];
        let mut sigs = vec![false; graph.n_signals()];
        let mut boundary = Vec::new();
        let mut n_gates = 0usize;
        for l in 0..graph.n_levels() {
            for &g in graph.level_gates(l) {
                let g = g as usize;
                let pins = graph.gate_fanin(g);
                if !changed[g] && !pins.iter().any(|&p| sigs[p as usize]) {
                    continue;
                }
                gates[g] = true;
                n_gates += 1;
                for &p in pins {
                    if !sigs[p as usize] {
                        boundary.push(p);
                    }
                }
                sigs[graph.gate_output(g).index()] = true;
            }
        }
        boundary.sort_unstable();
        boundary.dedup();
        ConeInfo {
            gates,
            sigs,
            boundary,
            n_gates,
        }
    }
}

/// Flattened, immutable launch schedule of a design (or of a cone of it),
/// independent of how many windows a batch simulates.
#[derive(Debug)]
pub(crate) struct LevelSchedule {
    levels: Vec<LevelDesc>,
    /// Gate id per gate slot, (level, gate id) order.
    gates: Vec<u32>,
    /// Baked kernel descriptor per gate slot (truth-table base, LUT
    /// base/ncols, fallback delays — see [`GateDesc`]): the hot loop's
    /// graph lookups resolved once at schedule compile time.
    descs: Vec<GateDesc>,
    /// Output signal per gate slot.
    out_sigs: Vec<u32>,
    /// CSR: pins of gate slot `s` live at `pin_sigs[pin_base[s]..pin_base[s + 1]]`.
    pin_base: Vec<u32>,
    /// Input signal per (gate slot, pin).
    pin_sigs: Vec<u32>,
    /// Interconnect `(rise, fall)` delay per (gate slot, pin) — same CSR
    /// layout as `pin_sigs`, baked so the kernel's arrival loop reads a
    /// dense schedule-local table.
    pin_net_delays: Vec<(i32, i32)>,
    /// Per-gate extent history: the largest stored waveform size, in
    /// even-aligned arena words, any window of any batch of this plan has
    /// produced. Indexed by *gate id*, not schedule slot, so a full plan's
    /// history transfers verbatim to a cone sub-plan of the same graph; one
    /// entry serves every window count. `0` is the first-touch sentinel:
    /// the gate has never stored under this plan, and the budget assigner
    /// falls back to the sound static bound (Σ published input lengths).
    ///
    /// Plain words with one writer: the engine thread of a run folds each
    /// round's batches into it and into the run's own copy, which the next
    /// round reserves from ([`LevelSchedule::fold_history`]), so no lock is
    /// held across a round and a device's budgets never depend on how far
    /// another device has got.
    history: Mutex<Vec<u32>>,
    /// The largest level's gate count.
    widest: usize,
}

impl LevelSchedule {
    /// Builds the schedule of the whole design.
    pub fn build(graph: &CircuitGraph) -> Self {
        let level_offsets = graph.level_offsets();
        let gates = graph.level_gates_flat().to_vec();
        let level_counts: Vec<u32> = (0..graph.n_levels())
            .map(|l| level_offsets[l + 1] - level_offsets[l])
            .collect();
        Self::assemble(graph, gates, level_counts)
    }

    /// Builds a *cone sub-schedule*: the same levelized plan, but
    /// restricted to the gates of `cone` (a changed set plus its transitive
    /// fan-out, see [`ConeInfo`]). Levels are filtered to their in-cone
    /// gates with compacted thread tables; levels left empty disappear
    /// entirely (no launch), so the cone of a handful of
    /// late-level resizes executes in a few launches regardless of the full
    /// design's depth. Relative level order is preserved, which keeps the
    /// dependency argument intact: every in-cone pin is either an earlier
    /// in-cone output or a boundary signal uploaded before the batch runs.
    pub fn restrict(graph: &CircuitGraph, cone: &ConeInfo) -> Self {
        let mut gates = Vec::with_capacity(cone.n_gates);
        let mut level_counts = Vec::new();
        for l in 0..graph.n_levels() {
            let lo = gates.len();
            gates.extend(
                graph
                    .level_gates(l)
                    .iter()
                    .copied()
                    .filter(|&g| cone.gates[g as usize]),
            );
            if gates.len() > lo {
                level_counts.push((gates.len() - lo) as u32);
            }
        }
        Self::assemble(graph, gates, level_counts)
    }

    /// Shared tail of [`LevelSchedule::build`]/[`LevelSchedule::restrict`]:
    /// flattens the per-slot tables for `gates` (level-ordered, with
    /// `level_counts[l]` consecutive slots per level).
    fn assemble(graph: &CircuitGraph, gates: Vec<u32>, level_counts: Vec<u32>) -> Self {
        let fanin_offsets = graph.fanin_offsets();
        let fanin_signals = graph.fanin_signals_flat();
        let gate_outputs = graph.gate_outputs_flat();

        let mut out_sigs = Vec::with_capacity(gates.len());
        let mut descs = Vec::with_capacity(gates.len());
        let mut pin_base = Vec::with_capacity(gates.len() + 1);
        let mut pin_sigs = Vec::new();
        let mut pin_net_delays = Vec::new();
        pin_base.push(0u32);
        for &g in &gates {
            let g = g as usize;
            out_sigs.push(gate_outputs[g]);
            descs.push(GateDesc::of(graph, g));
            let a = fanin_offsets[g] as usize;
            let b = fanin_offsets[g + 1] as usize;
            pin_sigs.extend_from_slice(&fanin_signals[a..b]);
            pin_net_delays.extend((a..b).map(|slot| graph.net_delays(slot)));
            pin_base.push(pin_sigs.len() as u32);
        }

        let mut lo = 0u32;
        let levels: Vec<LevelDesc> = level_counts
            .iter()
            .map(|&n| {
                let ld = LevelDesc {
                    gate_lo: lo,
                    gate_hi: lo + n,
                };
                lo += n;
                ld
            })
            .collect();
        let widest = levels.iter().map(LevelDesc::gates).max().unwrap_or(0);

        LevelSchedule {
            levels,
            gates,
            descs,
            out_sigs,
            pin_base,
            pin_sigs,
            pin_net_delays,
            history: Mutex::new(vec![0; graph.n_gates()]),
            widest,
        }
    }

    /// Number of levels, each one launch, in dependency order.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Level descriptor.
    pub fn level(&self, l: usize) -> &LevelDesc {
        &self.levels[l]
    }

    /// Gate id of a gate slot.
    #[inline]
    pub fn gate(&self, slot: usize) -> usize {
        self.gates[slot] as usize
    }

    /// Baked kernel descriptor of a gate slot.
    #[inline]
    pub fn desc(&self, slot: usize) -> GateDesc {
        self.descs[slot]
    }

    /// Interconnect delays of a gate slot's pins, pin order.
    #[inline]
    pub fn net_delays_of(&self, slot: usize) -> &[(i32, i32)] {
        &self.pin_net_delays[self.pin_base[slot] as usize..self.pin_base[slot + 1] as usize]
    }

    fn history(&self) -> MutexGuard<'_, Vec<u32>> {
        // Every update leaves each entry a size some batch stored (or the
        // seed hook's), so a table whose writer panicked is still sound.
        self.history.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A copy of the extent history: what a run's first round reserves
    /// from.
    pub fn read_history(&self) -> Vec<u32> {
        self.history().clone()
    }

    /// Overwrites every history entry — the hook tests and benches use to
    /// force deliberately tiny budgets (overflow on every gate) or to
    /// pre-warm.
    pub fn fill_history(&self, words: u32) {
        self.history().fill(words);
    }

    /// Replaces the history with a copy of `from`'s (a plan of the same
    /// graph): a cone sub-plan starts from the full plan's, so an
    /// incremental run speculates from the full run's extents instead of
    /// first-touch static bounds.
    pub fn copy_history(&self, from: &LevelSchedule) {
        let from = from.history().clone();
        *self.history() = from;
    }

    /// Folds settled batches, in the order given, into the history and
    /// into `snapshot`, the run's copy of it that its next round reserves
    /// from. A batch's `extents[s]` is the largest even-aligned length
    /// signal `s` stored in any of its windows ([`BatchScratch::extents`]);
    /// each scheduled gate keeps the larger of its entry and its output's
    /// extent, so entries only grow. A signal the batch never stored reads
    /// 0 and leaves its gate's entry alone. Only the plan's gates are
    /// touched, and the table is not copied, so a round's fold costs one
    /// read per (batch, gate slot). A run's budgets thus depend only on the
    /// table as the run found it and on its own rounds.
    pub fn fold_history<'a>(
        &self,
        batches: impl IntoIterator<Item = &'a [u32]>,
        snapshot: &mut [u32],
    ) {
        let mut history = self.history();
        for extents in batches {
            for (&gate, &sig) in self.gates.iter().zip(&self.out_sigs) {
                let extent = extents[sig as usize];
                for entry in [&mut history[gate as usize], &mut snapshot[gate as usize]] {
                    *entry = (*entry).max(extent);
                }
            }
        }
    }

    /// Output signal of a gate slot.
    #[inline]
    pub fn out_sig(&self, slot: usize) -> usize {
        self.out_sigs[slot] as usize
    }

    /// Input signals of a gate slot, pin order.
    #[inline]
    pub fn pins_of(&self, slot: usize) -> &[u32] {
        &self.pin_sigs[self.pin_base[slot] as usize..self.pin_base[slot + 1] as usize]
    }

    /// All input signals a level touches (for the incremental working-set
    /// sum).
    pub fn level_pins(&self, l: usize) -> &[u32] {
        let ld = &self.levels[l];
        let a = self.pin_base[ld.gate_lo as usize] as usize;
        let b = self.pin_base[ld.gate_hi as usize] as usize;
        &self.pin_sigs[a..b]
    }

    /// Input working set of level `l` in words, from the running per-signal
    /// length sums (valid only before level `l`'s launch: a signal's sum
    /// settles when its level's store pass ends, before that level's launch
    /// returns).
    pub fn level_ws(&self, len_sum: &[AtomicU64], l: usize) -> u64 {
        self.level_pins(l)
            .iter()
            // relaxed-ok: called on the engine thread before the level's
            // launch; every earlier level's adds ran on that thread or
            // behind the join of the launch that made them — see the doc
            // above.
            .map(|&s| len_sum[s as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// The largest level's gate count: a batch of `nw` windows needs
    /// scratch columns of `widest_level() × nw` entries.
    pub fn widest_level(&self) -> usize {
        self.widest
    }

    /// Total gate slots across all levels.
    pub fn n_slots(&self) -> usize {
        self.gates.len()
    }

    /// Structural checker of a compiled plan: verifies every invariant the
    /// hot path assumes instead of checking — flat-table shapes, level
    /// partitioning, baked descriptors and LUT offsets against the graph,
    /// and topological consistency. For cone sub-schedules, also checks the cone is closed under fanout and
    /// its boundary covers every out-of-cone pin. Returns one message per
    /// defect (empty = sound). This is `xtask validate-plans`' engine (via
    /// [`crate::audit`]) and the target of the mutation tests below.
    pub fn validate(&self, graph: &CircuitGraph, cone: Option<&ConeInfo>) -> Vec<String> {
        let mut defects = Vec::new();
        let n_slots = self.gates.len();

        // Flat-table shapes. Gross shape damage makes the later indexed
        // checks meaningless (or out-of-bounds), so bail early on it.
        if self.descs.len() != n_slots || self.out_sigs.len() != n_slots {
            defects.push(format!(
                "table shape: {} slots but {} descs / {} out_sigs",
                n_slots,
                self.descs.len(),
                self.out_sigs.len()
            ));
            return defects;
        }
        if self.pin_base.len() != n_slots + 1 || self.pin_base.first() != Some(&0) {
            defects.push(format!(
                "pin_base shape: {} entries for {} slots (want {} starting at 0)",
                self.pin_base.len(),
                n_slots,
                n_slots + 1
            ));
            return defects;
        }
        if let Some(s) = (1..self.pin_base.len()).find(|&s| self.pin_base[s] < self.pin_base[s - 1])
        {
            defects.push(format!("pin_base not monotone at slot {}", s - 1));
            return defects;
        }
        let pins_total = *self.pin_base.last().unwrap_or(&0) as usize;
        if pins_total != self.pin_sigs.len() || pins_total != self.pin_net_delays.len() {
            defects.push(format!(
                "pin tables: pin_base covers {pins_total} pins but pin_sigs has {} and \
                 pin_net_delays has {}",
                self.pin_sigs.len(),
                self.pin_net_delays.len()
            ));
            return defects;
        }

        // Levels: a contiguous, non-empty partition of the slot range, the
        // widest of which sizes the scratch columns.
        let mut lo = 0u32;
        for (l, ld) in self.levels.iter().enumerate() {
            if ld.gate_lo != lo || ld.gate_hi <= ld.gate_lo {
                defects.push(format!(
                    "level {l}: slot range {}..{} does not continue the partition at {lo}",
                    ld.gate_lo, ld.gate_hi
                ));
            }
            lo = ld.gate_hi.max(lo);
        }
        let widest = self.levels.iter().map(LevelDesc::gates).max().unwrap_or(0);
        if self.widest != widest {
            defects.push(format!(
                "widest level recorded as {} gates, but the largest level has {widest}",
                self.widest
            ));
        }
        if lo as usize != n_slots {
            defects.push(format!(
                "levels cover {lo} slots but the tables hold {n_slots}"
            ));
        }

        // Per-slot: gate ids in range and unique, baked tables consistent
        // with the graph, LUT offsets inside the flat arrays.
        let tt_len = graph.truth_tables_flat().len();
        let lut_len = graph.delay_luts_flat().len();
        let mut slot_of_gate: Vec<Option<u32>> = vec![None; graph.n_gates()];
        for slot in 0..n_slots {
            let gate = self.gates[slot] as usize;
            if gate >= graph.n_gates() {
                defects.push(format!(
                    "slot {slot}: gate id {gate} out of range ({} gates)",
                    graph.n_gates()
                ));
                continue;
            }
            if let Some(prev) = slot_of_gate[gate] {
                defects.push(format!("slot {slot}: gate {gate} already at slot {prev}"));
                continue;
            }
            slot_of_gate[gate] = Some(slot as u32);
            let desc = self.descs[slot];
            if desc != GateDesc::of(graph, gate) {
                defects.push(format!(
                    "slot {slot}: baked descriptor disagrees with the graph for gate {gate}"
                ));
            }
            if (desc.fanin >= 32) || (desc.tt_base as usize + (1usize << desc.fanin) > tt_len) {
                defects.push(format!(
                    "slot {slot}: truth-table rows {}..{} outside the flat array ({tt_len})",
                    desc.tt_base,
                    desc.tt_base as u64 + (1u64 << desc.fanin.min(63))
                ));
            }
            let lut_words = desc.fanin as usize * 4 * desc.lut_ncols as usize;
            if desc.lut_base as usize + lut_words > lut_len {
                defects.push(format!(
                    "slot {slot}: delay-LUT words {}..{} outside the flat array ({lut_len})",
                    desc.lut_base,
                    desc.lut_base as usize + lut_words
                ));
            }
            if self.out_sigs[slot] as usize != graph.gate_output(gate).index() {
                defects.push(format!(
                    "slot {slot}: output signal {} is not gate {gate}'s output",
                    self.out_sigs[slot]
                ));
            }
            let pins =
                &self.pin_sigs[self.pin_base[slot] as usize..self.pin_base[slot + 1] as usize];
            if pins != graph.gate_fanin(gate) {
                defects.push(format!(
                    "slot {slot}: pin signals disagree with gate {gate}"
                ));
            }
            let nd = &self.pin_net_delays
                [self.pin_base[slot] as usize..self.pin_base[slot + 1] as usize];
            let want: Vec<(i32, i32)> = (0..pins.len())
                .map(|i| graph.net_delays(graph.pin_base(gate) + i))
                .collect();
            if nd != want {
                defects.push(format!(
                    "slot {slot}: interconnect delays disagree with gate {gate}"
                ));
            }
        }

        // Topological consistency: every pin's producer (if scheduled) runs
        // at a strictly earlier level; unscheduled producers are legal only
        // for cone plans and only via the boundary.
        let mut level_of_slot = vec![0usize; n_slots];
        for (l, ld) in self.levels.iter().enumerate() {
            for s in ld.gate_lo..ld.gate_hi.min(n_slots as u32) {
                level_of_slot[s as usize] = l;
            }
        }
        for slot in 0..n_slots {
            let level = level_of_slot[slot];
            for &p in &self.pin_sigs[self.pin_base[slot] as usize..self.pin_base[slot + 1] as usize]
            {
                let driver = graph.driver(gatspi_graph::SignalId(p));
                match driver.and_then(|d| slot_of_gate.get(d).copied().flatten()) {
                    Some(dslot) => {
                        if level_of_slot[dslot as usize] >= level {
                            defects.push(format!(
                                "slot {slot} (level {level}): pin {p} is produced at level {} — \
                                 not strictly earlier",
                                level_of_slot[dslot as usize]
                            ));
                        }
                    }
                    None => match (driver, cone) {
                        (None, None) => {} // primary input
                        (Some(d), None) => defects.push(format!(
                            "slot {slot}: pin {p}'s producer (gate {d}) is missing from a \
                             full plan"
                        )),
                        (_, Some(c)) => {
                            if c.boundary.binary_search(&p).is_err() {
                                defects.push(format!(
                                    "slot {slot}: out-of-cone pin {p} is not in the cone's \
                                     boundary stimulus"
                                ));
                            }
                        }
                    },
                }
            }
        }

        // Coverage: a full plan schedules every gate exactly once; a cone
        // plan schedules exactly the cone's gates, and the cone itself must
        // be closed under fanout (an unscheduled gate reading an in-cone
        // output would consume a signal the incremental run recomputes).
        match cone {
            None => {
                if n_slots != graph.n_gates() {
                    defects.push(format!(
                        "full plan covers {n_slots} of {} gates",
                        graph.n_gates()
                    ));
                }
            }
            Some(c) => {
                if c.gates.len() != graph.n_gates() || c.sigs.len() != graph.n_signals() {
                    defects.push("cone flag tables do not match the graph".to_string());
                } else {
                    for (gate, slot) in slot_of_gate.iter().enumerate() {
                        let scheduled = slot.is_some();
                        if scheduled != c.gates[gate] {
                            defects.push(format!(
                                "gate {gate}: scheduled={scheduled} but cone membership is {}",
                                c.gates[gate]
                            ));
                        }
                        if !c.gates[gate] {
                            for &p in graph.gate_fanin(gate) {
                                let from_cone = graph
                                    .driver(gatspi_graph::SignalId(p))
                                    .is_some_and(|d| c.gates[d]);
                                if from_cone {
                                    defects.push(format!(
                                        "cone not closed under fanout: gate {gate} reads \
                                         in-cone signal {p} but is not in the cone"
                                    ));
                                }
                            }
                        }
                    }
                    if c.n_gates != n_slots {
                        defects.push(format!(
                            "cone reports {} gates but the plan has {n_slots} slots",
                            c.n_gates
                        ));
                    }
                }
            }
        }

        defects
    }
}

/// Index of signal `sig`'s window-`w` entry in the signal-major
/// [`BatchScratch::ptrs`] / [`BatchScratch::lens`] tables of an `nw`-window
/// batch: a gate's windows read their inputs and publish their output in
/// adjacent words. Every index of those tables goes through here.
#[inline]
pub(crate) fn slot(nw: usize, sig: usize, w: usize) -> usize {
    sig * nw + w
}

/// Per-batch scratch arena: every buffer the per-level hot loop touches,
/// allocated once. Pointer/length tables are atomics because the *store
/// pass itself* publishes them (each store thread writes its output's
/// pointer and length — folded publication), and so are the per-signal
/// sums it adds to; `outs`/`bases`/`caps` form one column every level
/// reuses from entry 0 — no column double-buffering; the launch join
/// orders reuse across levels.
#[derive(Debug)]
pub(crate) struct BatchScratch {
    /// `ptrs[slot(nw, s, w)]`: word offset of signal `s`'s waveform in
    /// window `w`, `u32::MAX` if absent (signal-major, see [`slot`]).
    pub ptrs: Vec<AtomicU32>,
    /// Stored length in words of the same waveform.
    pub lens: Vec<AtomicU32>,
    /// Running per-signal stored words across all windows of this batch
    /// (the incremental working-set sums), added to by the storing threads.
    pub len_sum: Vec<AtomicU64>,
    /// Per-signal SAIF toggle count over the batch's windows, added to by
    /// the storing threads.
    pub tc: Vec<AtomicU64>,
    /// Per-signal SAIF time at 1 over the batch's windows (time at 0 is
    /// the windows' total length minus this), added to likewise.
    pub t1: Vec<AtomicU64>,
    /// Reservation words the batch's speculative hits left unused.
    pub waste: AtomicU64,
    /// True packed outputs of the speculative pass (one column every level
    /// reuses; a level's entries live at `[0..threads]`).
    pub outs: Vec<AtomicU64>,
    /// Assigned arena bases — the reservation's, then the exact repair
    /// space's for an overflowed thread (same column layout as `outs`).
    pub bases: Vec<AtomicU32>,
    /// Speculative reservation sizes in words (same column layout as
    /// `outs`/`bases`): written by the budget assigner before a speculative
    /// launch, read by its threads, the overflow scan and the repair pass. Needs no reset — always written
    /// before read.
    pub caps: Vec<AtomicU32>,
    /// Overflowed column indices of the current speculative level,
    /// recorded by the kernel threads themselves (`ovf_len` cursor +
    /// slot array) so the post-level host scan is O(overflows), not
    /// O(columns). Reset by the budget assigner at each level boundary.
    pub ovf: Vec<AtomicU32>,
    /// Number of valid entries in [`BatchScratch::ovf`].
    pub ovf_len: AtomicUsize,
}

impl BatchScratch {
    /// A fresh arena for `n_signals` signals with `ptrs` pointer-table
    /// entries (`nw × n_signals` serve `nw` windows) and `columns` entries
    /// per column (a batch needs its plan's widest level × `nw`).
    pub fn new(n_signals: usize, ptrs: usize, columns: usize) -> Self {
        let column = || (0..columns).map(|_| AtomicU32::new(0)).collect();
        let mut ptr_table = Vec::with_capacity(ptrs);
        ptr_table.resize_with(ptrs, || AtomicU32::new(u32::MAX));
        let mut lens = Vec::with_capacity(ptrs);
        lens.resize_with(ptrs, || AtomicU32::new(0));
        let per_signal = || (0..n_signals).map(|_| AtomicU64::new(0)).collect();
        BatchScratch {
            ptrs: ptr_table,
            lens,
            len_sum: per_signal(),
            tc: per_signal(),
            t1: per_signal(),
            waste: AtomicU64::new(0),
            outs: (0..columns).map(|_| AtomicU64::new(0)).collect(),
            bases: column(),
            caps: column(),
            ovf: column(),
            ovf_len: AtomicUsize::new(0),
        }
    }

    /// Window-major snapshot (`w * n_signals + s`) of the signal-major
    /// pointer table for an `nw`-window batch — the layout the drain reads.
    /// The arena may be larger than the batch when it is reused from the
    /// session pool.
    pub fn ptrs_snapshot(&self, nw: usize, n_signals: usize) -> Vec<u32> {
        let mut ptrs = vec![0; nw * n_signals];
        for s in 0..n_signals {
            for w in 0..nw {
                // relaxed-ok: snapshots run on the engine thread after every
                // launch of the batch has joined.
                ptrs[w * n_signals + s] = self.ptrs[slot(nw, s, w)].load(Ordering::Relaxed);
            }
        }
        ptrs
    }

    /// Window-major snapshot of the length table (word counts per (window,
    /// signal) waveform — what the host-spill sink reads back) and, from
    /// the same pass, the batch's [`BatchScratch::extents`].
    pub fn lens_snapshot(&self, nw: usize, n_signals: usize) -> (Vec<u32>, Vec<u32>) {
        let mut lens = vec![0; nw * n_signals];
        let extents = self.scan_lens(nw, n_signals, |w, s, len| lens[w * n_signals + s] = len);
        (lens, extents)
    }

    /// Each signal's extent: the largest even-aligned length any of the
    /// batch's windows stored, what the batch adds to the plan's extent
    /// history ([`LevelSchedule::fold_history`]). A level's storing threads
    /// publish every window's length, overflows included, so a batch that
    /// ran out of memory still reports every level it launched.
    pub fn extents(&self, nw: usize, n_signals: usize) -> Vec<u32> {
        self.scan_lens(nw, n_signals, |_, _, _| {})
    }

    /// Reads the length table once, signal by signal, handing each
    /// `(window, signal, length)` to `each`, and returns the extents.
    fn scan_lens(
        &self,
        nw: usize,
        n_signals: usize,
        mut each: impl FnMut(usize, usize, u32),
    ) -> Vec<u32> {
        let mut extents = vec![0; n_signals];
        for (s, extent) in extents.iter_mut().enumerate() {
            for w in 0..nw {
                // relaxed-ok: see `ptrs_snapshot`.
                let len = self.lens[slot(nw, s, w)].load(Ordering::Relaxed);
                each(w, s, len);
                *extent = (*extent).max(len + (len & 1));
            }
        }
        extents
    }

    /// Whether this arena is large enough for a batch needing `ptrs`
    /// pointer-table entries and `threads` per-level scratch entries.
    pub fn fits(&self, ptrs: usize, threads: usize) -> bool {
        self.ptrs.len() >= ptrs && self.outs.len() >= threads
    }

    /// Re-initializes the first `ptrs` pointer/length entries and the
    /// per-signal and per-batch sums for a new batch (the columns need no reset:
    /// every level's budget assignment and store pass write its entries
    /// before anything reads them).
    pub fn reset(&self, ptrs: usize) {
        for p in &self.ptrs[..ptrs] {
            // relaxed-ok: reset runs on the engine thread between batches,
            // after the previous batch's launches and publishes joined.
            p.store(u32::MAX, Ordering::Relaxed);
        }
        for l in &self.lens[..ptrs] {
            // relaxed-ok: see above.
            l.store(0, Ordering::Relaxed);
        }
        for s in self.len_sum.iter().chain(&self.tc).chain(&self.t1) {
            // relaxed-ok: see above.
            s.store(0, Ordering::Relaxed);
        }
        // relaxed-ok: see above.
        self.waste.store(0, Ordering::Relaxed);
        // Clear the overflow cursor too: a batch abandoned by a panic
        // caught at the batch boundary can leave it non-zero, and
        // a poisoned cursor would leak phantom overflow columns into the
        // next batch that reuses this arena.
        // relaxed-ok: see above.
        self.ovf_len.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatspi_graph::GraphOptions;
    use gatspi_netlist::{CellLibrary, NetlistBuilder};
    use std::sync::Arc;

    fn chain_graph(n: usize) -> Arc<CircuitGraph> {
        let mut b = NetlistBuilder::new("chain", CellLibrary::industry_mini());
        let mut prev = b.add_input("a").unwrap();
        for i in 0..n {
            let net = b.add_net(&format!("n{i}")).unwrap();
            b.add_gate(&format!("u{i}"), "INV", &[prev], net).unwrap();
            prev = net;
        }
        b.mark_output(prev);
        Arc::new(CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap())
    }

    #[test]
    fn tables_mirror_graph() {
        let g = chain_graph(5);
        let s = LevelSchedule::build(&g);
        assert_eq!(s.levels.len(), 5);
        for l in 0..5 {
            let ld = s.level(l);
            assert_eq!(ld.gates(), 1);
            let slot = ld.gate_lo as usize;
            let gate = s.gate(slot);
            assert_eq!(g.gate_level(gate), l as u32);
            assert_eq!(s.out_sig(slot), g.gate_output(gate).index());
            assert_eq!(s.pins_of(slot), g.gate_fanin(gate));
            assert_eq!(s.level_pins(l), g.gate_fanin(gate));
            assert_eq!(s.desc(slot), GateDesc::of(&g, gate));
            let nd: Vec<(i32, i32)> = (0..g.gate_fanin(gate).len())
                .map(|i| g.net_delays(g.pin_base(gate) + i))
                .collect();
            assert_eq!(s.net_delays_of(slot), nd);
        }
    }

    /// The extent history is a plain per-gate table: a batch's extents
    /// are each signal's largest even-aligned length over its windows (the
    /// same from the length snapshot's pass as alone), a fold keeps the
    /// larger entry per scheduled gate (by gate id) in both the table and
    /// the run's copy, a cone sub-plan copies the full plan's table, and
    /// the seed hook overwrites every entry.
    #[test]
    fn predictor_is_monotone_and_seedable() {
        let g = chain_graph(3);
        let s = LevelSchedule::build(&g);
        let n = g.n_signals();
        let mut history = s.read_history();
        assert_eq!(history, [0; 3], "every gate starts at first touch");

        let nw = 2;
        let sig = |gate: usize| g.gate_output(gate).index();
        let extents = |lens: &[(usize, [u32; 2])]| {
            let sc = scratch(&g, &s, nw);
            for &(sig, words) in lens {
                for (w, &l) in words.iter().enumerate() {
                    sc.lens[slot(nw, sig, w)].store(l, Ordering::Relaxed);
                }
            }
            let (lens, extents) = sc.lens_snapshot(nw, n);
            assert_eq!(extents, sc.extents(nw, n));
            (lens, extents)
        };
        let (lens, first) = extents(&[(sig(1), [3, 5])]);
        assert_eq!(lens[n + sig(1)], 5, "the snapshot is window-major");
        assert_eq!(first[sig(1)], 6, "the largest length, even-aligned");
        let (_, smaller) = extents(&[(sig(1), [4, 2])]);
        s.fold_history([&first[..], &smaller[..]], &mut history);
        assert_eq!(
            history,
            [0, 6, 0],
            "a smaller extent never shrinks an entry"
        );
        let (_, larger) = extents(&[(sig(1), [10, 0])]);
        s.fold_history([&larger[..]], &mut history);
        assert_eq!(history[1], 10);
        assert_eq!(s.read_history(), history, "the table folds as the copy");

        // A fold of no batch touches nothing, not even the copy's length.
        s.fold_history([], &mut []);

        // A cone sub-plan copies the full plan's table (by gate id) and
        // folds only its own gates.
        let mut changed = vec![false; g.n_gates()];
        changed[1] = true;
        let sub = LevelSchedule::restrict(&g, &ConeInfo::of(&g, &changed));
        sub.copy_history(&s);
        let (_, both) = extents(&[(sig(0), [8, 8]), (sig(2), [7, 1])]);
        sub.fold_history([&both[..]], &mut history);
        assert_eq!(history, [0, 10, 8], "gate 0 is outside the cone");
        assert_eq!(sub.read_history(), history);
        assert_eq!(
            s.read_history(),
            [0, 10, 0],
            "the full plan's table is its own"
        );

        // The forced-budget hook overwrites everything.
        sub.fill_history(2);
        assert_eq!(sub.read_history(), [2; 3]);
    }

    fn scratch(g: &CircuitGraph, s: &LevelSchedule, nw: usize) -> BatchScratch {
        BatchScratch::new(g.n_signals(), nw * g.n_signals(), s.widest_level() * nw)
    }

    #[test]
    fn scratch_sized_for_widest_level() {
        let g = chain_graph(2);
        let s = LevelSchedule::build(&g);
        assert_eq!(s.widest_level(), 1);
        let scratch = scratch(&g, &s, 6);
        assert!(scratch.fits(6 * g.n_signals(), 6));
        assert!(!scratch.fits(6 * g.n_signals(), 7));
        assert!(!scratch.fits(7 * g.n_signals(), 6));
        assert_eq!(scratch.outs.len(), 6);
        assert_eq!(scratch.bases.len(), 6);
        assert_eq!(scratch.caps.len(), 6);
        assert_eq!(scratch.ptrs.len(), 6 * g.n_signals());
        assert_eq!(scratch.len_sum.len(), g.n_signals());
        assert!(scratch
            .ptrs
            .iter()
            .all(|p| p.load(Ordering::Relaxed) == u32::MAX));
    }

    #[test]
    fn reset_clears_len_sums() {
        let g = chain_graph(2);
        let s = LevelSchedule::build(&g);
        let scratch = scratch(&g, &s, 2);
        scratch.len_sum[0].store(99, Ordering::Relaxed);
        scratch.ptrs[0].store(5, Ordering::Relaxed);
        scratch.reset(scratch.ptrs.len());
        assert_eq!(scratch.len_sum[0].load(Ordering::Relaxed), 0);
        assert_eq!(scratch.ptrs[0].load(Ordering::Relaxed), u32::MAX);
    }

    #[test]
    fn packed_codec_round_trips() {
        use crate::kernel::KernelOutput;
        for (toggles, max_extent, initial_one) in [(0u32, 0u32, false), (3, 5, true), (7, 7, false)]
        {
            let out = KernelOutput {
                toggles,
                max_extent,
                initial_one,
            };
            let packed = out.pack();
            assert_eq!(KernelOutput::unpack(packed), out);
            let words = out.words() as usize;
            assert_eq!(KernelOutput::unpack_words_even(packed), words + (words & 1));
        }
    }

    /// A deterministic random DAG: every gate's inputs come from earlier
    /// nets, so levelization always succeeds.
    fn random_dag(seed: u64, n_gates: usize) -> Arc<CircuitGraph> {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
            | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = NetlistBuilder::new("dag", CellLibrary::industry_mini());
        let mut nets = vec![b.add_input("a").unwrap(), b.add_input("c").unwrap()];
        for i in 0..n_gates {
            let out = b.add_net(&format!("n{i}")).unwrap();
            let x = nets[next() as usize % nets.len()];
            if next() % 2 == 0 {
                b.add_gate(&format!("u{i}"), "INV", &[x], out).unwrap();
            } else {
                let y = nets[next() as usize % nets.len()];
                b.add_gate(&format!("u{i}"), "NAND2", &[x, y], out).unwrap();
            }
            nets.push(out);
        }
        b.mark_output(*nets.last().unwrap());
        Arc::new(CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap())
    }

    #[test]
    fn cone_of_chain_is_suffix() {
        let g = chain_graph(6);
        let mut changed = vec![false; g.n_gates()];
        changed[2] = true;
        let cone = ConeInfo::of(&g, &changed);
        assert_eq!(cone.n_gates, 4, "the changed gate and everything after");
        for gate in 0..6 {
            assert_eq!(cone.gates[gate], gate >= 2);
            assert_eq!(cone.sigs[g.gate_output(gate).index()], gate >= 2);
        }
        // The boundary is exactly the changed gate's (unchanged) input.
        assert_eq!(cone.boundary, vec![g.gate_fanin(2)[0]]);
    }

    #[test]
    fn empty_cone_restricts_to_empty_schedule() {
        let g = chain_graph(4);
        let cone = ConeInfo::of(&g, &vec![false; g.n_gates()]);
        assert_eq!(cone.n_gates, 0);
        assert!(cone.boundary.is_empty());
        let s = LevelSchedule::restrict(&g, &cone);
        assert_eq!(s.levels.len(), 0);
        assert_eq!(s.n_slots(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            .. proptest::prelude::ProptestConfig::default()
        })]

        /// The extracted cone is *exactly* the transitive fan-out of the
        /// changed set (reference: fixpoint iteration over the driver
        /// relation), its signal set is exactly the in-cone outputs, every
        /// in-cone pin is covered by cone signals ∪ boundary (boundary
        /// completeness), and the restricted schedule enumerates exactly
        /// the in-cone gates in relative level order.
        #[test]
        fn cone_is_exact_transitive_fanout(
            seed in 0u64..1 << 48,
            n_gates in 4usize..48,
            bits in proptest::collection::vec(proptest::any::<bool>(), 48..49),
        ) {
            use proptest::prelude::prop_assert_eq;
            let g = random_dag(seed, n_gates);
            let changed: Vec<bool> = (0..g.n_gates()).map(|i| bits[i]).collect();
            let cone = ConeInfo::of(&g, &changed);

            // Reference: iterate "a gate whose pin is driven by an in-cone
            // gate is in-cone" to a fixpoint.
            let mut expect = changed.clone();
            loop {
                let mut progress = false;
                for gate in 0..g.n_gates() {
                    if expect[gate] {
                        continue;
                    }
                    let hit = g.gate_fanin(gate).iter().any(|&p| {
                        g.driver(gatspi_graph::SignalId(p))
                            .is_some_and(|d| expect[d])
                    });
                    if hit {
                        expect[gate] = true;
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }
            prop_assert_eq!(&cone.gates, &expect);
            prop_assert_eq!(cone.n_gates, expect.iter().filter(|&&b| b).count());
            for s in 0..g.n_signals() {
                let driven_in_cone = g
                    .driver(gatspi_graph::SignalId(s as u32))
                    .is_some_and(|d| expect[d]);
                prop_assert_eq!(cone.sigs[s], driven_in_cone);
            }
            // Boundary completeness: every pin an in-cone gate reads is
            // either recomputed in-cone or listed as boundary stimulus —
            // and the boundary holds nothing else.
            let mut want_boundary = Vec::new();
            for (gate, &in_cone) in expect.iter().enumerate().take(g.n_gates()) {
                if !in_cone {
                    continue;
                }
                for &p in g.gate_fanin(gate) {
                    if !cone.sigs[p as usize] {
                        want_boundary.push(p);
                    }
                }
            }
            want_boundary.sort_unstable();
            want_boundary.dedup();
            prop_assert_eq!(&cone.boundary, &want_boundary);

            // The restricted schedule enumerates exactly the in-cone gates,
            // in relative level order.
            let sub = LevelSchedule::restrict(&g, &cone);
            let mut listed: Vec<usize> = (0..sub.n_slots()).map(|s| sub.gate(s)).collect();
            prop_assert_eq!(sub.n_slots(), cone.n_gates);
            let mut last_level = 0u32;
            for &gate in &listed {
                let l = g.gate_level(gate);
                assert!(l >= last_level, "levels stay ordered");
                last_level = l;
            }
            listed.sort_unstable();
            let mut want: Vec<usize> =
                (0..g.n_gates()).filter(|&gate| expect[gate]).collect();
            want.sort_unstable();
            prop_assert_eq!(listed, want);
        }
    }

    #[test]
    fn incremental_ws_matches_direct_sum() {
        let g = chain_graph(3);
        let s = LevelSchedule::build(&g);
        let scratch = scratch(&g, &s, 2);
        // Signal 0 (the PI) has 5 words in each of 2 windows.
        scratch.len_sum[0].store(10, Ordering::Relaxed);
        assert_eq!(s.level_ws(&scratch.len_sum, 0), 10);
        assert_eq!(
            s.level_ws(&scratch.len_sum, 1),
            0,
            "level 1 input not stored yet"
        );
        scratch.len_sum[g.gate_output(0).index()].store(6, Ordering::Relaxed);
        assert_eq!(s.level_ws(&scratch.len_sum, 1), 6);
    }

    // ---- structural checker + mutation tests -------------------------
    //
    // `validate` must accept everything the builders produce and flag each
    // invariant class when a plan is deliberately corrupted. These are the
    // firing proofs behind `xtask validate-plans` (pass 5): a checker that
    // accepts everything is indistinguishable from no checker.

    #[test]
    fn validate_accepts_built_plans() {
        let g = chain_graph(10);
        let s = LevelSchedule::build(&g);
        assert_eq!(s.validate(&g, None), Vec::<String>::new());
        let mut changed = vec![false; g.n_gates()];
        changed[4] = true;
        let cone = ConeInfo::of(&g, &changed);
        let s = LevelSchedule::restrict(&g, &cone);
        assert_eq!(s.validate(&g, Some(&cone)), Vec::<String>::new());
    }

    #[test]
    fn validate_flags_level_order_violation() {
        let g = chain_graph(3);
        let mut s = LevelSchedule::build(&g);
        // Swap slots 0 and 1 wholesale (gates, descs, outputs, pins — the
        // INV pin CSR is uniform, so the tables stay self-consistent): the
        // plan now runs gate 1 before its producer.
        s.gates.swap(0, 1);
        s.descs.swap(0, 1);
        s.out_sigs.swap(0, 1);
        s.pin_sigs.swap(0, 1);
        s.pin_net_delays.swap(0, 1);
        let defects = s.validate(&g, None);
        assert!(
            defects.iter().any(|d| d.contains("not strictly earlier")),
            "{defects:?}"
        );
    }

    #[test]
    fn validate_flags_corrupted_descriptor_and_duplicate_gate() {
        let g = chain_graph(3);
        let mut s = LevelSchedule::build(&g);
        s.descs[0].tt_base += 1;
        let defects = s.validate(&g, None);
        assert!(
            defects.iter().any(|d| d.contains("descriptor disagrees")),
            "{defects:?}"
        );
        let mut s = LevelSchedule::build(&g);
        s.gates[1] = s.gates[0];
        let defects = s.validate(&g, None);
        assert!(
            defects.iter().any(|d| d.contains("already at slot")),
            "{defects:?}"
        );
        assert!(
            defects
                .iter()
                .any(|d| d.contains("missing from a full plan")),
            "gate 1's consumer lost its producer: {defects:?}"
        );
    }

    #[test]
    fn validate_flags_non_closed_cone() {
        let g = chain_graph(6);
        // Hand-build a cone holding only gate 2: gate 3 consumes gate 2's
        // output but is not in the cone, so the incremental run would
        // recompute a signal its unscheduled consumer never re-reads.
        let mut gates = vec![false; g.n_gates()];
        gates[2] = true;
        let mut sigs = vec![false; g.n_signals()];
        sigs[g.gate_output(2).index()] = true;
        let cone = ConeInfo {
            gates,
            sigs,
            boundary: g.gate_fanin(2).to_vec(),
            n_gates: 1,
        };
        let s = LevelSchedule::restrict(&g, &cone);
        let defects = s.validate(&g, Some(&cone));
        assert!(
            defects
                .iter()
                .any(|d| d.contains("not closed under fanout")),
            "{defects:?}"
        );
    }

    #[test]
    fn validate_flags_boundary_gaps_and_table_shape_damage() {
        let g = chain_graph(6);
        let mut changed = vec![false; g.n_gates()];
        changed[3] = true;
        let mut cone = ConeInfo::of(&g, &changed);
        // Drop the boundary: the cone's first gate now reads a signal no
        // stimulus supplies.
        cone.boundary.clear();
        let s = LevelSchedule::restrict(&g, &cone);
        let defects = s.validate(&g, Some(&cone));
        assert!(
            defects.iter().any(|d| d.contains("boundary stimulus")),
            "{defects:?}"
        );
        // A wrong widest level would size every batch's columns wrongly.
        let mut s = LevelSchedule::build(&g);
        s.widest += 1;
        let defects = s.validate(&g, None);
        assert!(
            defects.iter().any(|d| d.contains("widest level")),
            "{defects:?}"
        );
        // Gross shape damage short-circuits with a table-shape defect.
        let mut s = LevelSchedule::build(&g);
        s.out_sigs.pop();
        let defects = s.validate(&g, None);
        assert_eq!(defects.len(), 1, "{defects:?}");
        assert!(defects[0].contains("table shape"), "{defects:?}");
    }
}
