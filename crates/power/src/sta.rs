//! Static max-arrival timing analysis over the simulation graph.
//!
//! The glitch flow uses arrival times as its fix search's guard: a cell
//! slowdown is kept only while the critical path stays within the clock
//! period's budget. [`max_arrivals`] times a whole graph; the search's
//! guard keeps those arrivals across the search and re-times only what
//! one gate's new delays reach. Both apply the same per-gate rule, so
//! they agree exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gatspi_graph::CircuitGraph;
use gatspi_sdf::NO_ARC;

/// Per-signal worst-case (latest) arrival times, in ticks from the cycle
/// start; primary inputs arrive at 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTimes {
    arrivals: Vec<i64>,
}

impl ArrivalTimes {
    /// Latest arrival of a signal.
    pub fn of(&self, signal: usize) -> i64 {
        self.arrivals[signal]
    }

    /// The critical-path delay (max over all signals).
    pub fn critical_path(&self) -> i64 {
        max_of(&self.arrivals)
    }
}

fn max_of(arrivals: &[i64]) -> i64 {
    arrivals.iter().copied().max().unwrap_or(0)
}

/// The timing rule: gate `g`'s output arrival from its pins' arrivals,
/// using each arc's maximum specified delay (the gate's fallback delay
/// when the SDF left the arc unannotated) plus the pin's interconnect.
fn gate_arrival(graph: &CircuitGraph, arrivals: &[i64], g: usize) -> i64 {
    let base = graph.pin_base(g);
    let (fb_r, fb_f) = graph.fallback_delay(g);
    let fallback = i64::from(fb_r.max(fb_f));
    let mut out = 0i64;
    for (pin, &sig) in graph.gate_fanin(g).iter().enumerate() {
        let (ndr, ndf) = graph.net_delays(base + pin);
        let arc = graph
            .delay_lut(g, pin)
            .iter()
            .copied()
            .filter(|&d| d != NO_ARC)
            .max()
            .map(i64::from)
            .unwrap_or(fallback);
        out = out.max(arrivals[sig as usize] + i64::from(ndr.max(ndf)) + arc);
    }
    out
}

/// Computes worst-case arrivals by level order.
pub fn max_arrivals(graph: &CircuitGraph) -> ArrivalTimes {
    let mut arrivals = vec![0i64; graph.n_signals()];
    for &g in graph.level_gates_flat() {
        let g = g as usize;
        arrivals[graph.gate_output(g).index()] = gate_arrival(graph, &arrivals, g);
    }
    ArrivalTimes { arrivals }
}

/// [`max_arrivals`] kept up to date across a sequence of delay edits, at
/// the cost of what each edit changes.
///
/// After a gate is re-annotated, [`TimingGuard::retime`] re-times it, then
/// its readers in level order, and stops a branch where an arrival does
/// not change. Every changed arrival goes to an undo log, so
/// [`TimingGuard::rollback`] restores the arrivals and the critical path
/// of the last [`TimingGuard::commit`] exactly. The critical path is a
/// running maximum; only an arrival that falls from the maximum it held
/// (a speed-up) costs a full scan.
#[derive(Debug)]
pub(crate) struct TimingGuard {
    arrivals: Vec<i64>,
    critical: i64,
    /// Reader gates of signal `s` at `readers[reader_offsets[s]..reader_offsets[s + 1]]`.
    reader_offsets: Vec<u32>,
    readers: Vec<u32>,
    /// Gates to re-time, lowest level first.
    queue: BinaryHeap<Reverse<(u32, u32)>>,
    /// One bit per gate: already in `queue`.
    queued: Vec<u64>,
    /// `(signal, arrival before)` for every change since the last commit,
    /// oldest first.
    undo: Vec<(u32, i64)>,
    /// The critical path at the last commit.
    committed_critical: i64,
}

impl TimingGuard {
    /// Times `graph` in full and indexes its readers.
    pub(crate) fn new(graph: &CircuitGraph) -> Self {
        let arrivals = max_arrivals(graph).arrivals;
        let mut reader_offsets = vec![0u32; graph.n_signals() + 1];
        for &sig in graph.fanin_signals_flat() {
            reader_offsets[sig as usize + 1] += 1;
        }
        for s in 0..graph.n_signals() {
            reader_offsets[s + 1] += reader_offsets[s];
        }
        let mut cursor = reader_offsets.clone();
        let mut readers = vec![0u32; graph.fanin_signals_flat().len()];
        for g in 0..graph.n_gates() {
            for &sig in graph.gate_fanin(g) {
                readers[cursor[sig as usize] as usize] = g as u32;
                cursor[sig as usize] += 1;
            }
        }
        let critical = max_of(&arrivals);
        TimingGuard {
            arrivals,
            critical,
            reader_offsets,
            readers,
            queue: BinaryHeap::new(),
            queued: vec![0; graph.n_gates().div_ceil(64)],
            undo: Vec::new(),
            committed_critical: critical,
        }
    }

    /// The critical-path delay, as [`ArrivalTimes::critical_path`] on the
    /// graph last re-timed.
    pub(crate) fn critical_path(&self) -> i64 {
        self.critical
    }

    /// Re-times gate `gate` of `graph`, whose delays changed since the
    /// last call, and everything its change reaches. `graph` must differ
    /// from the one the guard last saw only in `gate`'s delays. Returns
    /// how many gates it re-timed.
    pub(crate) fn retime(&mut self, graph: &CircuitGraph, gate: usize) -> usize {
        let mut retimed = 0;
        let mut fell_from_max = false;
        self.enqueue(graph, gate);
        while let Some(Reverse((_, g))) = self.queue.pop() {
            let g = g as usize;
            self.queued[g / 64] &= !(1 << (g % 64));
            retimed += 1;
            let out = graph.gate_output(g).index();
            let (old, new) = (self.arrivals[out], gate_arrival(graph, &self.arrivals, g));
            if new == old {
                continue;
            }
            self.undo.push((out as u32, old));
            self.arrivals[out] = new;
            fell_from_max |= new < old && old == self.critical;
            self.critical = self.critical.max(new);
            let readers = self.reader_offsets[out] as usize..self.reader_offsets[out + 1] as usize;
            for i in readers {
                self.enqueue(graph, self.readers[i] as usize);
            }
        }
        if fell_from_max {
            self.critical = max_of(&self.arrivals);
        }
        retimed
    }

    fn enqueue(&mut self, graph: &CircuitGraph, g: usize) {
        let bit = 1 << (g % 64);
        if self.queued[g / 64] & bit == 0 {
            self.queued[g / 64] |= bit;
            self.queue.push(Reverse((graph.gate_level(g), g as u32)));
        }
    }

    /// Keeps every change since the last commit.
    pub(crate) fn commit(&mut self) {
        self.undo.clear();
        self.committed_critical = self.critical;
    }

    /// Undoes every change since the last commit.
    pub(crate) fn rollback(&mut self) {
        for (sig, old) in self.undo.drain(..).rev() {
            self.arrivals[sig as usize] = old;
        }
        self.critical = self.committed_critical;
    }
}

#[cfg(test)]
impl TimingGuard {
    /// Per-signal arrivals, as [`max_arrivals`] on the graph last re-timed.
    pub(crate) fn arrivals(&self) -> &[i64] {
        &self.arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatspi_graph::GraphOptions;
    use gatspi_netlist::{CellLibrary, NetlistBuilder};
    use gatspi_sdf::SdfFile;

    #[test]
    fn chain_accumulates() {
        let mut b = NetlistBuilder::new("t", CellLibrary::industry_mini());
        let a = b.add_input("a").unwrap();
        let n1 = b.add_net("n1").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate("u1", "INV", &[a], n1).unwrap();
        b.add_gate("u2", "INV", &[n1], y).unwrap();
        let sdf = SdfFile::parse(
            r#"(DELAYFILE
  (CELL (CELLTYPE "INV") (INSTANCE u1) (DELAY (ABSOLUTE (IOPATH A Y (3) (5)))))
  (CELL (CELLTYPE "INV") (INSTANCE u2) (DELAY (ABSOLUTE (IOPATH A Y (2) (2))))))"#,
        )
        .unwrap();
        let g = CircuitGraph::build(&b.finish().unwrap(), Some(&sdf), &GraphOptions::default())
            .unwrap();
        let at = max_arrivals(&g);
        assert_eq!(at.of(1), 5); // n1: max(3,5)
        assert_eq!(at.of(2), 7); // y: 5 + 2
        assert_eq!(at.critical_path(), 7);
    }
}
