use std::sync::Arc;

use gatspi_gpu::{AppPhaseProfile, KernelProfile};
use gatspi_wave::saif::SaifDocument;
use gatspi_wave::{SimTime, Waveform, INIT_ONE_MARKER};

use crate::schedule::ConeInfo;
use crate::sink::SpillSink;
use crate::{CoreError, Result};

/// The outcome of a GATSPI run: SAIF activity, per-signal toggle counts,
/// kernel and application profiles, and — for runs that enabled
/// [`RunOptions::spill_waveforms`](crate::RunOptions::spill_waveforms) —
/// the full simulated waveforms, read from their host spill. A result
/// holds no device memory.
#[derive(Debug)]
pub struct SimResult {
    /// SAIF document over all primary inputs and gate outputs.
    pub saif: SaifDocument,
    /// Accumulated re-simulation kernel profile (modeled GPU metrics plus
    /// measured wall time across all level launches).
    pub kernel_profile: KernelProfile,
    /// Application-phase breakdown (Table 5 style).
    pub app_profile: AppPhaseProfile,
    /// Measured wall-clock seconds for the whole run (application runtime).
    pub wall_seconds: f64,
    pub(crate) toggle_counts: Vec<u64>,
    pub(crate) duration: SimTime,
    pub(crate) segments: usize,
    pub(crate) spilled: Option<SpillSink>,
    /// The cone an incremental run recomputed; `None` for a full run.
    pub(crate) recomputed: Option<Arc<ConeInfo>>,
}

impl SimResult {
    /// Simulated duration in ticks.
    pub fn duration(&self) -> SimTime {
        self.duration
    }

    /// How many sequential memory segments the run needed (1 = everything
    /// fit in device memory at once).
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Total toggle count of a signal across the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is out of range.
    pub fn toggle_count(&self, signal: usize) -> u64 {
        self.toggle_counts[signal]
    }

    /// Which signals this run recomputed, as one flag per signal: `None`
    /// for a full run (every signal), the fan-out cone of the changed
    /// gates for [`Session::run_incremental`](crate::Session::run_incremental).
    /// Every other signal's activity and waveform is the `prev` run's, so
    /// for a chained incremental run the set is relative to the `prev` it
    /// was given.
    pub fn recomputed_signals(&self) -> Option<&[bool]> {
        self.recomputed.as_deref().map(|cone| cone.sigs.as_slice())
    }

    /// Sum of toggles over all signals.
    pub fn total_toggles(&self) -> u64 {
        self.toggle_counts.iter().sum()
    }

    /// Per-signal toggle counts (indexed by signal, length
    /// `graph.n_signals()`).
    pub fn toggle_counts_slice(&self) -> &[u64] {
        &self.toggle_counts
    }

    /// Activity factor: toggles per signal per `cycle_time`-long cycle.
    pub fn activity_factor(&self, cycle_time: SimTime) -> f64 {
        let cycles = (self.duration / cycle_time.max(1)).max(1) as f64;
        let signals = self.toggle_counts.len().max(1) as f64;
        self.total_toggles() as f64 / (signals * cycles)
    }

    /// Reconstructs the full waveform of a signal by stitching its
    /// per-window waveforms (re-based to absolute time, clipped at window
    /// boundaries): [`SimResult::for_each_toggle`] collected into a
    /// [`Waveform`].
    ///
    /// The waveforms are read from the run's host spill, so the run must
    /// have enabled
    /// [`RunOptions::spill_waveforms`](crate::RunOptions::spill_waveforms);
    /// the spill is valid for any segment count and after later runs on
    /// the same session.
    ///
    /// # Errors
    ///
    /// * [`CoreError::WaveformsNotKept`] if the run did not spill its
    ///   waveforms.
    /// * [`CoreError::NoSuchSignal`] for out-of-range indices.
    pub fn waveform(&self, signal: usize) -> Result<Waveform> {
        // The run's toggle count is the stitched waveform's.
        let tc = self.toggle_counts.get(signal).map_or(0, |&n| n as usize);
        let mut toggles = Vec::with_capacity(tc);
        let initial = self.for_each_toggle(signal, |t| toggles.push(t))?;
        Ok(Waveform::from_toggles(initial, &toggles))
    }

    /// Calls `f` with every toggle time of the signal's stitched waveform
    /// (the one [`SimResult::waveform`] returns), strictly ascending and
    /// positive, and returns its initial value. Each stored word is read
    /// once, in order, and nothing is allocated — the pass for consumers
    /// that fold a waveform rather than keep it.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use gatspi_core::{RunOptions, Session, SimConfig};
    /// use gatspi_graph::{CircuitGraph, GraphOptions};
    /// use gatspi_netlist::{CellLibrary, NetlistBuilder};
    /// use gatspi_wave::Waveform;
    ///
    /// # fn main() -> gatspi_core::Result<()> {
    /// let mut b = NetlistBuilder::new("inv", CellLibrary::industry_mini());
    /// let a = b.add_input("a").unwrap();
    /// let y = b.add_output("y").unwrap();
    /// b.add_gate("u0", "INV", &[a], y).unwrap();
    /// let graph = CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default())
    ///     .unwrap();
    /// let y = graph.gate_output(0).index();
    /// let stimulus = [Waveform::from_toggles(false, &[100, 300])];
    /// let r = Session::new(Arc::new(graph), SimConfig::small())
    ///     .run_with(&stimulus, 400, &RunOptions::default().with_waveform_spill())?;
    ///
    /// let mut toggles = Vec::new();
    /// let initial = r.for_each_toggle(y, |t| toggles.push(t))?;
    /// assert_eq!(Waveform::from_toggles(initial, &toggles), r.waveform(y)?);
    /// assert_eq!(toggles.len() as u64, r.toggle_count(y));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// As [`SimResult::waveform`].
    pub fn for_each_toggle(&self, signal: usize, f: impl FnMut(SimTime)) -> Result<bool> {
        stitch(self.spill()?, signal, f)
    }

    /// Convenience: the waveforms of several signals.
    ///
    /// # Errors
    ///
    /// As [`SimResult::waveform`].
    pub fn waveforms(&self, signals: &[usize]) -> Result<Vec<Waveform>> {
        signals.iter().map(|&s| self.waveform(s)).collect()
    }

    /// Raw device words of one signal's waveform in one window (diagnostic
    /// view of the Fig. 3 storage, up to and including the EOW terminator),
    /// read from the host spill like [`SimResult::waveform`].
    ///
    /// # Errors
    ///
    /// As [`SimResult::waveform`]; additionally fails for out-of-range
    /// windows.
    pub fn raw_window(&self, signal: usize, window: usize) -> Result<Vec<i32>> {
        read_raw(self.spill()?, signal, window)
    }

    /// The run's host spill, where its waveforms live.
    fn spill(&self) -> Result<&SpillSink> {
        self.spilled.as_ref().ok_or(CoreError::WaveformsNotKept)
    }
}

/// Base of `signal`'s waveform in `window` of the spill; `None` when
/// absent (floating signal). Spilled bases are even and advance by one per
/// word, so a word's value is its index's parity.
fn base(spill: &SpillSink, window: usize, signal: usize) -> Option<u64> {
    // An encoded pointer's low bit is its even in-chunk offset's.
    let p = spill.ptrs[window * spill.n_signals + signal];
    (p != u64::MAX).then_some(p)
}

/// Reads one stored waveform up to and including the EOW terminator.
fn read_raw(spill: &SpillSink, signal: usize, window: usize) -> Result<Vec<i32>> {
    if signal >= spill.n_signals || window >= spill.windows.len() {
        return Err(CoreError::NoSuchSignal { index: signal });
    }
    Ok(spill
        .stored(window, signal)
        .map_or_else(Vec::new, <[i32]>::to_vec))
}

/// The one window-join rule: feeds `f` a signal's toggles window by
/// window, re-based to absolute time, and returns its initial value. A
/// window opening at a different value than the stitched waveform holds
/// toggles at its start; words at or past the window's length are
/// spillover the next window re-derives from its own initial value. A
/// signal absent from any window is floating: constant 0.
fn stitch(spill: &SpillSink, signal: usize, mut f: impl FnMut(SimTime)) -> Result<bool> {
    if signal >= spill.n_signals {
        return Err(CoreError::NoSuchSignal { index: signal });
    }
    let windows = &spill.windows;
    let bases = (0..windows.len()).map(|w| base(spill, w, signal));
    if bases.clone().any(|b| b.is_none()) {
        return Ok(false);
    }
    let mut initial = None;
    // The stitched value and last toggle: a toggle is only emitted where
    // the value changes at a strictly later time.
    let (mut value, mut last) = (false, 0);
    for (base, &(start, end)) in bases.flatten().zip(windows) {
        // The waveform up to its EOW, then whatever follows it.
        let mut words = spill.slice_from(base).iter().copied();
        let mut idx = base;
        if words.next() == Some(INIT_ONE_MARKER) {
            idx += 1;
            words.next(); // the time-0 entry
        }
        let opening = idx % 2 == 1;
        if initial.is_none() {
            (initial, value) = (Some(opening), opening);
        } else if opening != value && start > last {
            f(start);
            (value, last) = (opening, start);
        }
        let wlen = end - start;
        for t in words {
            idx += 1;
            // EOW is `SimTime::MAX`, never below `wlen`.
            if t >= wlen {
                break;
            }
            let (at, v) = (start + t, idx % 2 == 1);
            if v != value && at > last {
                f(at);
                (value, last) = (v, at);
            }
        }
    }
    Ok(initial.unwrap_or(false))
}
