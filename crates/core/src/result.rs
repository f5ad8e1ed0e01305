use std::sync::Arc;

use gatspi_gpu::{AppPhaseProfile, Device, KernelProfile};
use gatspi_wave::saif::SaifDocument;
use gatspi_wave::{SimTime, Waveform, EOW, INIT_ONE_MARKER};

use crate::sink::SpillSink;
use crate::{CoreError, Result};

/// Per-run extraction state: everything needed to stitch a signal's full
/// waveform straight out of device memory. Present only for unsegmented
/// runs (a segmented run reuses the arena; enable
/// [`RunOptions::spill_waveforms`](crate::RunOptions::spill_waveforms) to
/// keep host copies instead).
#[derive(Debug)]
pub(crate) struct ExtractionState {
    pub device: Arc<Device>,
    /// `ptr[w * n_signals + s]`: word offset of signal `s`'s waveform in
    /// window `w`, or `u32::MAX` for absent (floating) signals.
    pub ptrs: Vec<u32>,
    pub windows: Vec<(SimTime, SimTime)>,
    pub n_signals: usize,
    /// Arena generation these pointers belong to; a later run on the same
    /// device advances it, turning reads into [`CoreError::StaleExtraction`]
    /// instead of silently stitching the next run's data.
    pub epoch: u64,
}

impl ExtractionState {
    fn check_live(&self) -> Result<()> {
        if self.device.memory().epoch() == self.epoch {
            Ok(())
        } else {
            Err(CoreError::StaleExtraction)
        }
    }
}

/// The outcome of a GATSPI run: SAIF activity, per-signal toggle counts,
/// kernel and application profiles, and access to the full simulated
/// waveforms (directly from device memory for unsegmented runs, or from
/// the host spill for segmented runs that requested it).
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
    pub(crate) extraction: Option<ExtractionState>,
    pub(crate) spilled: Option<SpillSink>,
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
    /// Runs that enabled
    /// [`RunOptions::spill_waveforms`](crate::RunOptions::spill_waveforms)
    /// are served from the durable host spill — valid for any segment
    /// count and after later runs on the same session. Without spill, an
    /// unsegmented run reads live device memory, which is only valid until
    /// the next run recycles the session's arena (detected and reported as
    /// an error rather than silently reading the newer run's data).
    ///
    /// # Errors
    ///
    /// * [`CoreError::Segmented`] if the run used more than one memory
    ///   segment and did not spill waveforms to the host.
    /// * [`CoreError::StaleExtraction`] if a later run recycled the device
    ///   arena under a device-backed (non-spilled) result.
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
    /// As [`SimResult::waveform`]. A device-backed result that turns out
    /// stale after the pass may already have fed `f` words of the newer
    /// run; the error says to discard them.
    pub fn for_each_toggle(&self, signal: usize, f: impl FnMut(SimTime)) -> Result<bool> {
        if let Some(ext) = &self.extraction {
            ext.check_live()?;
            let initial = stitch(ext, signal, f)?;
            // Re-check after reading: a run racing on another thread could
            // have recycled the arena mid-stitch; fail rather than report
            // words mixed from two runs.
            ext.check_live()?;
            return Ok(initial);
        }
        match &self.spilled {
            Some(spill) => stitch(spill, signal, f),
            None => Err(CoreError::Segmented {
                segments: self.segments,
            }),
        }
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
    /// view of the Fig. 3 storage, up to and including the EOW terminator).
    /// Served from device memory or the host spill, like
    /// [`SimResult::waveform`].
    ///
    /// # Errors
    ///
    /// As [`SimResult::waveform`]; additionally fails for out-of-range
    /// windows.
    pub fn raw_window(&self, signal: usize, window: usize) -> Result<Vec<i32>> {
        if let Some(ext) = &self.extraction {
            ext.check_live()?;
            let raw = read_raw(ext, signal, window)?;
            // Re-check after reading (see `for_each_toggle`).
            ext.check_live()?;
            return Ok(raw);
        }
        match &self.spilled {
            Some(spill) => read_raw(spill, signal, window),
            None => Err(CoreError::Segmented {
                segments: self.segments,
            }),
        }
    }
}

/// Where a finished run's waveform words live: device memory or the host
/// spill. Both keep waveform bases even and advance a base by one per
/// word, so a word's value is its index's parity in either store.
trait WordStore {
    fn windows(&self) -> &[(SimTime, SimTime)];
    fn n_signals(&self) -> usize;
    /// Base of `signal`'s waveform in `window`; `None` when absent
    /// (floating signal).
    fn base(&self, window: usize, signal: usize) -> Option<usize>;
    /// The words from `base` on: the waveform up to its EOW, then
    /// whatever follows it.
    fn words(&self, base: usize) -> impl Iterator<Item = i32> + '_;
}

impl WordStore for ExtractionState {
    fn windows(&self) -> &[(SimTime, SimTime)] {
        &self.windows
    }
    fn n_signals(&self) -> usize {
        self.n_signals
    }
    fn base(&self, window: usize, signal: usize) -> Option<usize> {
        let p = self.ptrs[window * self.n_signals + signal];
        (p != u32::MAX).then_some(p as usize)
    }
    fn words(&self, base: usize) -> impl Iterator<Item = i32> + '_ {
        let mem = self.device.memory();
        (base..).map(|idx| mem.load(idx))
    }
}

impl WordStore for SpillSink {
    fn windows(&self) -> &[(SimTime, SimTime)] {
        &self.windows
    }
    fn n_signals(&self) -> usize {
        self.n_signals
    }
    fn base(&self, window: usize, signal: usize) -> Option<usize> {
        // An encoded pointer's low bit is its even in-chunk offset's.
        let p = self.ptrs[window * self.n_signals + signal];
        (p != u64::MAX).then_some(p as usize)
    }
    fn words(&self, base: usize) -> impl Iterator<Item = i32> + '_ {
        self.slice_from(base as u64).iter().copied()
    }
}

/// Reads one stored waveform up to and including the EOW terminator.
fn read_raw(store: &impl WordStore, signal: usize, window: usize) -> Result<Vec<i32>> {
    if signal >= store.n_signals() || window >= store.windows().len() {
        return Err(CoreError::NoSuchSignal { index: signal });
    }
    let Some(base) = store.base(window, signal) else {
        return Ok(Vec::new());
    };
    let mut raw: Vec<i32> = store.words(base).take_while(|&w| w != EOW).collect();
    raw.push(EOW);
    Ok(raw)
}

/// The one window-join rule: feeds `f` a signal's toggles window by
/// window, re-based to absolute time, and returns its initial value. A
/// window opening at a different value than the stitched waveform holds
/// toggles at its start; words at or past the window's length are
/// spillover the next window re-derives from its own initial value. A
/// signal absent from any window is floating: constant 0.
fn stitch(store: &impl WordStore, signal: usize, mut f: impl FnMut(SimTime)) -> Result<bool> {
    if signal >= store.n_signals() {
        return Err(CoreError::NoSuchSignal { index: signal });
    }
    let windows = store.windows();
    let bases = (0..windows.len()).map(|w| store.base(w, signal));
    if bases.clone().any(|b| b.is_none()) {
        return Ok(false);
    }
    let mut initial = None;
    // The stitched value and last toggle: a toggle is only emitted where
    // the value changes at a strictly later time.
    let (mut value, mut last) = (false, 0);
    for (base, &(start, end)) in bases.flatten().zip(windows) {
        let mut words = store.words(base);
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
