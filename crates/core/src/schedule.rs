//! Precomputed per-batch launch schedule: the zero-allocation hot path.
//!
//! The seed engine recomputed everything per level of every window batch —
//! per-thread `gate_fanin` CSR walks inside the kernel closure, a
//! `gates × fanin × windows` working-set scan, and fresh `Vec<AtomicU64>` /
//! `vec![0u32; threads]` scratch allocations per level — and always issued
//! two launches per level, even for near-empty levels where launch overhead
//! dominates (the paper's Tables 5–6 profile exactly these phases).
//!
//! [`LevelSchedule`] is built once per window batch and gives
//! `run_window_batch` everything flat:
//!
//! * per-level thread tables (`gates`, `out_sigs`, `pin_base`, `pin_sigs`)
//!   so a kernel thread resolves its gate, output signal and input-pointer
//!   slots by dense indexing instead of walking graph CSR per invocation;
//! * per-level working-set sizes computed incrementally from the running
//!   per-signal length sums ([`BatchScratch::len_sum`]) — `O(level pins)`
//!   instead of `O(gates × fanin × windows)`;
//! * launch fusion groups: maximal runs of consecutive levels whose
//!   combined thread count does not exceed
//!   [`SimConfig::fuse_threshold`](crate::SimConfig::fuse_threshold),
//!   executed as one phased launch (store/repair phases per level behind
//!   the device's internal phase hand-off) — one launch overhead instead
//!   of one per level;
//! * a persistent scratch arena ([`BatchScratch`]) replacing all per-level
//!   allocations: signal-major atomic pointer/length tables ([`slot`]),
//!   plus count-output, base and reservation-cap columns in which every
//!   level of a fused group owns a **disjoint contiguous slab range**
//!   ([`LevelDesc::col_off`]) — the group's output allocation is one arena
//!   cursor carried across those ranges — and the per-signal length and
//!   SAIF sums the storing threads add to.

use std::ops::Range;

use crate::kernel::GateDesc;
use crate::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use gatspi_graph::CircuitGraph;

/// One level's slice of the flattened schedule tables.
#[derive(Debug, Clone)]
pub(crate) struct LevelDesc {
    /// Range of gate slots (indices into `gates` / `out_sigs`).
    pub gate_lo: u32,
    /// One past the last gate slot.
    pub gate_hi: u32,
    /// Logical threads: gates in level × windows.
    pub threads: usize,
    /// Offset of this level's count/base entries in the scratch column.
    /// Levels of a fused group occupy disjoint consecutive ranges of one
    /// contiguous slab (`col_off..col_off + threads`), so no level of the
    /// group writes entries another level's threads read. Classic
    /// single-level groups start at 0.
    pub col_off: u32,
}

/// A maximal run of consecutive levels dispatched by one launch decision.
#[derive(Debug, Clone)]
pub(crate) struct LaunchGroup {
    /// Level indices covered.
    pub levels: Range<usize>,
    /// Combined logical threads across the covered levels.
    pub threads: usize,
    /// `true` ⇒ one phased launch (store + repair phases per level);
    /// `false` ⇒ a single wide level on its own launch (plus a narrow
    /// repair launch if a reservation overflowed).
    pub fused: bool,
    /// Range into [`LevelSchedule::phase_threads`] for the phased launch.
    pub phases: Range<usize>,
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
    /// never become dirty later — so the boundary set is final. The cone is
    /// window-count-independent; [`LevelSchedule::restrict`] specializes it
    /// per batch size.
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

/// Per-gate maximum observed stored waveform size, in even-aligned arena
/// words, indexed by *gate id* (not schedule slot — so the history a full
/// plan accumulates transfers verbatim to any cone sub-plan of the same
/// graph). `0` is the first-touch sentinel: the gate has never completed a
/// store under this plan-cache entry, and the speculative budget assigner
/// must fall back to the sound static bound (Σ published input lengths).
///
/// Updates are monotone (`fetch_max`), which makes the table safe to share
/// between concurrent launches, multi-GPU shard threads, and the repair
/// scan without locks: a stale read can only under-predict, which costs an
/// overflow repair, never correctness.
#[derive(Debug)]
pub(crate) struct ExtentPredictor {
    words: Vec<AtomicU32>,
}

impl ExtentPredictor {
    pub(crate) fn new(n_gates: usize) -> Self {
        let mut words = Vec::with_capacity(n_gates);
        words.resize_with(n_gates, || AtomicU32::new(0));
        ExtentPredictor { words }
    }

    /// Records an observed stored size (even-aligned words) for a gate.
    ///
    /// Guarded by a plain load: in the steady state every observation is
    /// ≤ the recorded maximum and the kernel threads calling this per
    /// gate-window pay one read, no RMW. The guard races benignly — two
    /// concurrent observers can both pass it, and `fetch_max` still keeps
    /// the entry monotone.
    #[inline]
    pub fn observe(&self, gate: usize, words: u32) {
        // relaxed-ok: the predictor is advisory — a stale or torn-ordered
        // read only costs an overflow repair; fetch_max keeps the entry
        // monotone under concurrent observers.
        if self.words[gate].load(Ordering::Relaxed) < words {
            // relaxed-ok: see above.
            self.words[gate].fetch_max(words, Ordering::Relaxed);
        }
    }

    /// Predicted even-aligned words for a gate; `None` on first touch.
    #[inline]
    pub fn predict(&self, gate: usize) -> Option<u32> {
        // relaxed-ok: see `observe`.
        match self.words[gate].load(Ordering::Relaxed) {
            0 => None,
            w => Some(w),
        }
    }

    /// Overwrites every entry — the hook tests and benches use to force
    /// deliberately tiny budgets (overflow on every gate) or to pre-warm.
    pub fn fill(&self, words: u32) {
        for w in &self.words {
            // relaxed-ok: runs on the engine thread between batches.
            w.store(words, Ordering::Relaxed);
        }
    }

    /// Merges another predictor's history into this one (monotone max).
    /// Cone sub-plans seed from the full plan so incremental runs
    /// speculate accurately from their first window.
    pub fn seed_from(&self, other: &ExtentPredictor) {
        for (dst, src) in self.words.iter().zip(&other.words) {
            // relaxed-ok: advisory history copy; see `observe`.
            dst.fetch_max(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// Flattened, immutable launch schedule for one window batch.
#[derive(Debug)]
pub(crate) struct LevelSchedule {
    /// Windows simulated concurrently in this batch.
    pub nw: usize,
    levels: Vec<LevelDesc>,
    groups: Vec<LaunchGroup>,
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
    /// Per-gate speculative extent history shared by every batch that
    /// reuses this cached plan (see [`ExtentPredictor`]).
    predictor: ExtentPredictor,
    /// Flat per-phase thread counts; a fused group's phased launch uses
    /// `phase_threads[group.phases]` (two phases per level: speculative
    /// store, repair).
    phase_threads: Vec<usize>,
    /// Entries the scratch count/base column must hold: the widest single
    /// level or the largest fused group's whole slab, whichever is bigger.
    col_entries: usize,
}

impl LevelSchedule {
    /// Builds the schedule for `nw` concurrent windows with the given
    /// fusion threshold (`0` disables fusion).
    pub fn build(graph: &CircuitGraph, nw: usize, fuse_threshold: usize) -> Self {
        let level_offsets = graph.level_offsets();
        let gates = graph.level_gates_flat().to_vec();
        let level_counts: Vec<u32> = (0..graph.n_levels())
            .map(|l| level_offsets[l + 1] - level_offsets[l])
            .collect();
        Self::assemble(graph, gates, level_counts, nw, fuse_threshold)
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
    pub fn restrict(
        graph: &CircuitGraph,
        nw: usize,
        fuse_threshold: usize,
        cone: &ConeInfo,
    ) -> Self {
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
        Self::assemble(graph, gates, level_counts, nw, fuse_threshold)
    }

    /// Shared tail of [`LevelSchedule::build`]/[`LevelSchedule::restrict`]:
    /// flattens the per-slot tables for `gates` (level-ordered, with
    /// `level_counts[l]` consecutive slots per level) and runs the greedy
    /// launch-fusion pass.
    fn assemble(
        graph: &CircuitGraph,
        gates: Vec<u32>,
        level_counts: Vec<u32>,
        nw: usize,
        fuse_threshold: usize,
    ) -> Self {
        let n_levels = level_counts.len();
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
        let mut levels: Vec<LevelDesc> = level_counts
            .iter()
            .map(|&n| {
                let ld = LevelDesc {
                    gate_lo: lo,
                    gate_hi: lo + n,
                    threads: n as usize * nw,
                    col_off: 0,
                };
                lo += n;
                ld
            })
            .collect();

        // Greedy fusion: extend a run while the combined thread count stays
        // under the threshold. A single level at or above the threshold
        // keeps a launch of its own (wide levels amortise their launch
        // overhead; fusing them would only serialize the host boundary
        // work behind a worker barrier).
        let mut groups = Vec::new();
        let mut phase_threads = Vec::new();
        let mut start = 0usize;
        while start < n_levels {
            let first = levels[start].threads;
            if fuse_threshold == 0 || first >= fuse_threshold {
                groups.push(LaunchGroup {
                    levels: start..start + 1,
                    threads: first,
                    fused: false,
                    phases: 0..0,
                });
                start += 1;
                continue;
            }
            let mut end = start + 1;
            let mut cum = first;
            while end < n_levels
                && levels[end].threads < fuse_threshold
                && cum + levels[end].threads <= fuse_threshold
            {
                cum += levels[end].threads;
                end += 1;
            }
            let phase_lo = phase_threads.len();
            let mut slab_off = 0u32;
            for ld in &mut levels[start..end] {
                // Consecutive levels of the group stack into one
                // contiguous slab of the scratch column.
                ld.col_off = slab_off;
                slab_off += ld.threads as u32;
                phase_threads.push(ld.threads); // speculative store pass
                phase_threads.push(ld.threads); // repair pass
            }
            groups.push(LaunchGroup {
                levels: start..end,
                threads: cum,
                fused: true,
                phases: phase_lo..phase_threads.len(),
            });
            start = end;
        }

        let max_level_threads = levels.iter().map(|ld| ld.threads).max().unwrap_or(0);
        let max_slab = groups
            .iter()
            .filter(|g| g.fused)
            .map(|g| g.threads)
            .max()
            .unwrap_or(0);

        LevelSchedule {
            nw,
            levels,
            groups,
            gates,
            descs,
            out_sigs,
            pin_base,
            pin_sigs,
            pin_net_delays,
            predictor: ExtentPredictor::new(graph.n_gates()),
            phase_threads,
            col_entries: max_level_threads.max(max_slab),
        }
    }

    /// The launch groups in dependency order.
    pub fn groups(&self) -> &[LaunchGroup] {
        &self.groups
    }

    /// Level descriptor.
    pub fn level(&self, l: usize) -> &LevelDesc {
        &self.levels[l]
    }

    /// Per-phase thread counts of a fused group.
    pub fn phases(&self, group: &LaunchGroup) -> &[usize] {
        &self.phase_threads[group.phases.clone()]
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

    /// The plan's shared per-gate extent history.
    #[inline]
    pub fn predictor(&self) -> &ExtentPredictor {
        &self.predictor
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
    /// length sums (valid only at a launch-group top: a signal's sum
    /// settles when its level's store pass ends, before that level's launch
    /// returns).
    pub fn level_ws(&self, len_sum: &[AtomicU64], l: usize) -> u64 {
        self.level_pins(l)
            .iter()
            // relaxed-ok: called on the engine thread at a launch-group
            // top; every earlier level's adds ran on that thread or behind
            // the join of the launch that made them — see the doc above.
            .map(|&s| len_sum[s as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Allocates the batch scratch arena sized for this schedule.
    pub fn new_scratch(&self, n_signals: usize) -> BatchScratch {
        BatchScratch::new(n_signals, self.nw, self.col_entries)
    }

    /// Entries the scratch count/base column must hold for this schedule:
    /// the widest single level's threads or the largest fused group's
    /// contiguous slab, whichever is bigger.
    pub fn col_entries(&self) -> usize {
        self.col_entries
    }

    /// Total gate slots across all levels.
    pub fn n_slots(&self) -> usize {
        self.gates.len()
    }

    /// Structural checker of a compiled plan: verifies every invariant the
    /// hot path assumes instead of checking — flat-table shapes, level
    /// partitioning, baked descriptors and LUT offsets against the graph,
    /// topological consistency, launch-group coverage, and the fused-slab
    /// disjointness the group's scan and repair depend on. For
    /// cone sub-schedules, also checks the cone is closed under fanout and
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

        // Levels: a contiguous, non-empty partition of the slot range with
        // thread counts = gates × windows.
        let mut lo = 0u32;
        for (l, ld) in self.levels.iter().enumerate() {
            if ld.gate_lo != lo || ld.gate_hi <= ld.gate_lo {
                defects.push(format!(
                    "level {l}: slot range {}..{} does not continue the partition at {lo}",
                    ld.gate_lo, ld.gate_hi
                ));
            }
            let n = ld.gate_hi.saturating_sub(ld.gate_lo) as usize;
            if ld.threads != n * self.nw {
                defects.push(format!(
                    "level {l}: {} threads for {n} gates × {} windows",
                    ld.threads, self.nw
                ));
            }
            if ld.threads > self.col_entries {
                defects.push(format!(
                    "level {l}: {} threads exceed the scratch column ({} entries)",
                    ld.threads, self.col_entries
                ));
            }
            lo = ld.gate_hi.max(lo);
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

        // Launch groups: an in-order partition of the levels; fused groups
        // own two phases per level and disjoint, in-bounds col_off slabs.
        let mut next_level = 0usize;
        let mut next_phase = 0usize;
        for (gi, gr) in self.groups.iter().enumerate() {
            if gr.levels.start != next_level || gr.levels.end <= gr.levels.start {
                defects.push(format!(
                    "group {gi}: level range {:?} does not continue the partition at {next_level}",
                    gr.levels
                ));
                next_level = gr.levels.end.max(next_level);
                continue;
            }
            next_level = gr.levels.end;
            let threads: usize = gr
                .levels
                .clone()
                .filter_map(|l| self.levels.get(l).map(|ld| ld.threads))
                .sum();
            if gr.threads != threads {
                defects.push(format!(
                    "group {gi}: {} threads recorded, {threads} across its levels",
                    gr.threads
                ));
            }
            if !gr.fused {
                if gr.levels.len() != 1 {
                    defects.push(format!(
                        "group {gi}: classic (unfused) group spans {} levels",
                        gr.levels.len()
                    ));
                }
                if !gr.phases.is_empty() {
                    defects.push(format!(
                        "group {gi}: classic group owns phases {:?}",
                        gr.phases
                    ));
                }
                for l in gr.levels.clone() {
                    if let Some(ld) = self.levels.get(l) {
                        if ld.col_off != 0 {
                            defects.push(format!(
                                "group {gi}: classic level {l} starts its column at {} (want 0)",
                                ld.col_off
                            ));
                        }
                    }
                }
                continue;
            }
            if gr.phases.start != next_phase || gr.phases.len() != 2 * gr.levels.len() {
                defects.push(format!(
                    "group {gi}: phase range {:?} for {} levels (want 2 per level from \
                     {next_phase})",
                    gr.phases,
                    gr.levels.len()
                ));
            }
            next_phase = gr.phases.end.max(next_phase);
            for (k, l) in gr.levels.clone().enumerate() {
                let (Some(ld), Some(&pc), Some(&ps)) = (
                    self.levels.get(l),
                    self.phase_threads.get(gr.phases.start + 2 * k),
                    self.phase_threads.get(gr.phases.start + 2 * k + 1),
                ) else {
                    continue;
                };
                if pc != ld.threads || ps != ld.threads {
                    defects.push(format!(
                        "group {gi}: level {l}'s phases run {pc}/{ps} threads, level has {}",
                        ld.threads
                    ));
                }
            }
            // Slab disjointness: every level of a fused group stores into
            // and scans its own col_off range of the one group slab.
            let mut slabs: Vec<(u32, u32)> = gr
                .levels
                .clone()
                .filter_map(|l| self.levels.get(l))
                .map(|ld| (ld.col_off, ld.col_off + ld.threads as u32))
                .collect();
            slabs.sort_unstable();
            for w in slabs.windows(2) {
                if w[1].0 < w[0].1 {
                    defects.push(format!(
                        "group {gi}: col_off slabs {}..{} and {}..{} overlap",
                        w[0].0, w[0].1, w[1].0, w[1].1
                    ));
                }
            }
            if let Some(&(_, end)) = slabs.last() {
                if end as usize > self.col_entries {
                    defects.push(format!(
                        "group {gi}: slab ends at {end}, past the scratch column \
                         ({} entries)",
                        self.col_entries
                    ));
                }
            }
        }
        if next_level != self.levels.len() {
            defects.push(format!(
                "groups cover {next_level} of {} levels",
                self.levels.len()
            ));
        }
        if next_phase != self.phase_threads.len() {
            defects.push(format!(
                "fused groups use {next_phase} of {} phase entries",
                self.phase_threads.len()
            ));
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
/// sums it adds to; `outs`/`bases`/`caps` form one column in which every
/// level of a fused group owns a disjoint contiguous slab range
/// ([`LevelDesc::col_off`]) — no column double-buffering; the launch join
/// orders reuse across groups.
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
    /// True packed outputs of the speculative pass (one column of `stride`
    /// entries; a level's entries live at `[col_off..col_off + threads]`).
    pub outs: Vec<AtomicU64>,
    /// Assigned arena bases — the reservation's, then the exact repair
    /// space's for an overflowed thread (one column of `stride` entries).
    pub bases: Vec<AtomicU32>,
    /// Speculative reservation sizes in words (one column of `stride`
    /// entries, same slab layout as `outs`/`bases`): written by the budget
    /// assigner before a speculative launch, read by its threads, the
    /// overflow scan and the repair pass. Needs no reset — always written
    /// before read.
    pub caps: Vec<AtomicU32>,
    /// Overflowed column indices of the current speculative level,
    /// recorded by the kernel threads themselves (`ovf_len` cursor +
    /// slot array) so the post-level host scan is O(overflows), not
    /// O(columns). Reset by the budget assigner at each level boundary.
    pub ovf: Vec<AtomicU32>,
    /// Number of valid entries in [`BatchScratch::ovf`].
    pub ovf_len: AtomicUsize,
    /// Entries in the `outs`/`bases` column (≥ the widest level's threads
    /// and ≥ the largest fused group's slab).
    stride: usize,
    /// Consecutive acquisitions this arena served while grossly oversized
    /// for the requested batch (the pool's shrink heuristic; see
    /// `Session::acquire_scratch`).
    pub oversize_uses: u32,
}

impl BatchScratch {
    fn new(n_signals: usize, nw: usize, col_entries: usize) -> Self {
        let column = || (0..col_entries).map(|_| AtomicU32::new(0)).collect();
        let mut ptrs = Vec::with_capacity(nw * n_signals);
        ptrs.resize_with(nw * n_signals, || AtomicU32::new(u32::MAX));
        let mut lens = Vec::with_capacity(nw * n_signals);
        lens.resize_with(nw * n_signals, || AtomicU32::new(0));
        let per_signal = || (0..n_signals).map(|_| AtomicU64::new(0)).collect();
        BatchScratch {
            ptrs,
            lens,
            len_sum: per_signal(),
            tc: per_signal(),
            t1: per_signal(),
            waste: AtomicU64::new(0),
            outs: (0..col_entries).map(|_| AtomicU64::new(0)).collect(),
            bases: column(),
            caps: column(),
            ovf: column(),
            ovf_len: AtomicUsize::new(0),
            stride: col_entries,
            oversize_uses: 0,
        }
    }

    /// Entries in the `outs`/`bases` column.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Pointer-table capacity in `(window, signal)` slots.
    pub fn ptr_capacity(&self) -> usize {
        self.ptrs.len()
    }

    /// Window-major copy (`w * n_signals + s`) of the signal-major `table`
    /// for an `nw`-window batch — the layout waveform extraction and the
    /// drain read. The arena may be larger than the batch when it is reused
    /// from the session pool.
    fn window_major(table: &[AtomicU32], nw: usize, n_signals: usize) -> Vec<u32> {
        let mut out = vec![0; nw * n_signals];
        for s in 0..n_signals {
            for w in 0..nw {
                // relaxed-ok: snapshots run on the engine thread after every
                // launch of the batch has joined.
                out[w * n_signals + s] = table[slot(nw, s, w)].load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Window-major snapshot of the pointer table (see
    /// [`BatchScratch::window_major`]).
    pub fn ptrs_snapshot(&self, nw: usize, n_signals: usize) -> Vec<u32> {
        Self::window_major(&self.ptrs, nw, n_signals)
    }

    /// Window-major snapshot of the length table (word counts per
    /// (window, signal) waveform — what the host-spill sink reads back).
    pub fn lens_snapshot(&self, nw: usize, n_signals: usize) -> Vec<u32> {
        Self::window_major(&self.lens, nw, n_signals)
    }

    /// Whether this arena is large enough for a batch needing `ptrs`
    /// pointer-table entries and `threads` per-level scratch entries.
    pub fn fits(&self, ptrs: usize, threads: usize) -> bool {
        self.ptrs.len() >= ptrs && self.stride >= threads
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
        // Clear the overflow cursor too: a batch that was abandoned by a
        // fault isolated at the segment boundary can leave it non-zero, and
        // a poisoned cursor would leak phantom overflow columns into the
        // next batch that reuses this arena.
        // relaxed-ok: see above.
        self.ovf_len.store(0, Ordering::Relaxed);
    }
}

/// Host-side mutable state threaded through the per-level loop: the arena
/// bump pointer. (The per-signal length sums live in
/// [`BatchScratch::len_sum`] so the storing threads can add to them; a
/// launch group's bump carry lives in its output-space assigner while its
/// launch runs.)
#[derive(Debug, Default)]
pub(crate) struct HostState {
    /// Next free arena word (kept even-aligned for output waveforms).
    pub bump: usize,
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
        let s = LevelSchedule::build(&g, 3, 0);
        assert_eq!(s.levels.len(), 5);
        for l in 0..5 {
            let ld = s.level(l);
            assert_eq!(ld.threads, 3);
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

    #[test]
    fn predictor_is_monotone_and_seedable() {
        let g = chain_graph(3);
        let s = LevelSchedule::build(&g, 2, 0);
        let p = s.predictor();
        assert_eq!(p.predict(1), None, "first touch");
        p.observe(1, 6);
        p.observe(1, 4); // smaller observation must not shrink the entry
        assert_eq!(p.predict(1), Some(6));
        p.observe(1, 10);
        assert_eq!(p.predict(1), Some(10));
        // A cone sub-plan seeds from the full plan's history (by gate id).
        let mut changed = vec![false; g.n_gates()];
        changed[1] = true;
        let cone = ConeInfo::of(&g, &changed);
        let sub = LevelSchedule::restrict(&g, 2, 0, &cone);
        assert_eq!(sub.predictor().predict(1), None);
        sub.predictor().seed_from(p);
        assert_eq!(sub.predictor().predict(1), Some(10));
        assert_eq!(sub.predictor().predict(0), None, "unseen gate stays cold");
        // The forced-budget hook overwrites everything.
        sub.predictor().fill(2);
        assert_eq!(sub.predictor().predict(0), Some(2));
        assert_eq!(sub.predictor().predict(1), Some(2));
    }

    #[test]
    fn threshold_zero_disables_fusion() {
        let g = chain_graph(4);
        let s = LevelSchedule::build(&g, 8, 0);
        assert_eq!(s.groups().len(), 4);
        assert!(s.groups().iter().all(|gr| !gr.fused));
    }

    #[test]
    fn small_levels_fuse_up_to_threshold() {
        let g = chain_graph(10);
        // 1 gate × 4 windows = 4 threads per level; threshold 12 → groups
        // of 3 levels.
        let s = LevelSchedule::build(&g, 4, 12);
        let sizes: Vec<usize> = s.groups().iter().map(|gr| gr.levels.len()).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
        for gr in s.groups() {
            assert!(gr.fused);
            assert_eq!(s.phases(gr).len(), 2 * gr.levels.len());
            assert!(gr.threads <= 12);
        }
    }

    #[test]
    fn fused_group_levels_get_disjoint_contiguous_slabs() {
        let g = chain_graph(10);
        let s = LevelSchedule::build(&g, 4, 12);
        for gr in s.groups() {
            // Within a group the levels stack contiguously from 0; the
            // whole slab fits the scratch column.
            let mut expect = 0u32;
            for l in gr.levels.clone() {
                let ld = s.level(l);
                assert_eq!(ld.col_off, expect, "level {l} slab offset");
                expect += ld.threads as u32;
            }
            assert_eq!(expect as usize, gr.threads);
            assert!(gr.threads <= s.col_entries());
        }
        // Classic (unfused) levels all start at column 0.
        let s = LevelSchedule::build(&g, 4, 0);
        assert!(s.levels.iter().all(|ld| ld.col_off == 0));
    }

    #[test]
    fn wide_level_stays_classic() {
        let g = chain_graph(3);
        // 1 gate × 32 windows = 32 threads ≥ threshold 32 → classic.
        let s = LevelSchedule::build(&g, 32, 32);
        assert!(s.groups().iter().all(|gr| !gr.fused));
        // Raising the threshold fuses everything into one group.
        let s = LevelSchedule::build(&g, 32, 128);
        assert_eq!(s.groups().len(), 1);
        assert!(s.groups()[0].fused);
        assert_eq!(s.groups()[0].threads, 96);
    }

    #[test]
    fn scratch_sized_for_widest_level_or_largest_slab() {
        let g = chain_graph(2);
        let s = LevelSchedule::build(&g, 6, 0);
        let scratch = s.new_scratch(g.n_signals());
        assert_eq!(scratch.stride(), 6);
        assert_eq!(scratch.outs.len(), 6);
        assert_eq!(scratch.bases.len(), 6);
        assert_eq!(scratch.caps.len(), 6);
        assert_eq!(scratch.ptr_capacity(), 6 * g.n_signals());
        assert_eq!(scratch.len_sum.len(), g.n_signals());
        assert!(scratch
            .ptrs
            .iter()
            .all(|p| p.load(Ordering::Relaxed) == u32::MAX));
        // A fused schedule sizes the column for the largest group slab,
        // which exceeds any single level.
        let fused = LevelSchedule::build(&g, 6, 100);
        assert_eq!(fused.col_entries(), 12, "2 levels × 6 threads slab");
        assert_eq!(fused.new_scratch(g.n_signals()).stride(), 12);
    }

    #[test]
    fn reset_clears_len_sums() {
        let g = chain_graph(2);
        let s = LevelSchedule::build(&g, 2, 0);
        let scratch = s.new_scratch(g.n_signals());
        scratch.len_sum[0].store(99, Ordering::Relaxed);
        scratch.ptrs[0].store(5, Ordering::Relaxed);
        scratch.reset(scratch.ptr_capacity());
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
        let s = LevelSchedule::restrict(&g, 3, 0, &cone);
        assert_eq!(s.levels.len(), 0);
        assert_eq!(s.n_slots(), 0);
        assert!(s.groups().is_empty());
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
            let sub = LevelSchedule::restrict(&g, 2, 0, &cone);
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
        let s = LevelSchedule::build(&g, 2, 0);
        let scratch = s.new_scratch(g.n_signals());
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
        for (nw, fuse) in [(1, 0), (4, 0), (4, 12), (32, 128)] {
            let s = LevelSchedule::build(&g, nw, fuse);
            assert_eq!(
                s.validate(&g, None),
                Vec::<String>::new(),
                "nw={nw} fuse={fuse}"
            );
        }
        let mut changed = vec![false; g.n_gates()];
        changed[4] = true;
        let cone = ConeInfo::of(&g, &changed);
        for (nw, fuse) in [(4, 0), (4, 12)] {
            let s = LevelSchedule::restrict(&g, nw, fuse, &cone);
            assert_eq!(s.validate(&g, Some(&cone)), Vec::<String>::new());
        }
    }

    #[test]
    fn validate_flags_overlapping_fused_slabs() {
        let g = chain_graph(10);
        let mut s = LevelSchedule::build(&g, 4, 12);
        assert!(s.groups[0].fused && s.groups[0].levels.len() == 3);
        // Collapse level 1's slab onto level 0's: the group's levels must
        // each own their range of the slab.
        s.levels[1].col_off = 0;
        let defects = s.validate(&g, None);
        assert!(defects.iter().any(|d| d.contains("overlap")), "{defects:?}");
    }

    #[test]
    fn validate_flags_level_order_violation() {
        let g = chain_graph(3);
        let mut s = LevelSchedule::build(&g, 1, 0);
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
        let mut s = LevelSchedule::build(&g, 2, 0);
        s.descs[0].tt_base += 1;
        let defects = s.validate(&g, None);
        assert!(
            defects.iter().any(|d| d.contains("descriptor disagrees")),
            "{defects:?}"
        );
        let mut s = LevelSchedule::build(&g, 2, 0);
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
        let s = LevelSchedule::restrict(&g, 2, 0, &cone);
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
        let s = LevelSchedule::restrict(&g, 2, 0, &cone);
        let defects = s.validate(&g, Some(&cone));
        assert!(
            defects.iter().any(|d| d.contains("boundary stimulus")),
            "{defects:?}"
        );
        // Gross shape damage short-circuits with a table-shape defect.
        let mut s = LevelSchedule::build(&g, 2, 0);
        s.out_sigs.pop();
        let defects = s.validate(&g, None);
        assert_eq!(defects.len(), 1, "{defects:?}");
        assert!(defects[0].contains("table shape"), "{defects:?}");
    }
}
