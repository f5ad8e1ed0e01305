//! Pluggable output sinks for streaming runs.
//!
//! A [`Session`](crate::Session) run produces one waveform per (signal,
//! window). Each finished segment's waveforms are read back from device
//! memory *before* the arena is recycled and streamed to whatever wants
//! them — the built-in host spill (the one place a finished run keeps its
//! waveforms, read by
//! [`SimResult::waveform`](crate::SimResult::waveform)), a caller-supplied
//! [`WaveformSink`] via
//! [`Session::run_streaming`](crate::Session::run_streaming), or the
//! ready-made format sinks [`VcdSink`] and [`SaifSink`], which turn the
//! stream into industry-standard output files with memory bounded per
//! window — a million-signal run never materialises all its waveforms.
//!
//! # The raw device-word contract
//!
//! Every delivery hands the sink the Fig. 3 *device encoding* of one
//! window-local waveform, exactly as stored in the arena:
//!
//! * an optional leading
//!   [`INIT_ONE_MARKER`](gatspi_wave::INIT_ONE_MARKER) (`-1`) when the
//!   initial value is 1, shifting the next entry to odd index parity
//!   (decoded by the shared [`gatspi_wave::split_raw`]);
//! * a mandatory `0` entry establishing the initial value (value after
//!   the entry at slice index `k` is `k % 2` — the slice starts at the
//!   waveform's even-aligned arena base, so in-slice parity equals arena
//!   parity);
//! * strictly ascending toggle times, **window-local** (add
//!   [`WindowInfo::start`] to re-base) and possibly spilling past the
//!   window end (consumers must clip to `[0, end - start)`);
//! * an [`EOW`] terminator. Slots past it may hold stale transient values
//!   from the store pass — always stop at `EOW`.
//!
//! # Window-join semantics
//!
//! Windows cut one continuous simulation, so the value a window opens on
//! (its initial value) always equals the value the previous window closed
//! on. Format sinks must therefore *stitch* joins rather than re-emit
//! state: [`VcdSink`] writes a change at a window start only when the
//! value genuinely differs from the last one written (never, for
//! well-formed producers, except the time-0 initial dump), and
//! [`SaifSink`] folds per-window durations/toggle deltas that sum exactly
//! to the whole-run record. Within one segment, deliveries arrive in
//! window order and then ascending signal order; across segments (and
//! across the devices of a fleet, whose batches settle in window order)
//! window starts ascend, which is all the format sinks rely on.

use std::io;
use std::sync::Arc;

use gatspi_wave::saif::{SaifAccumulator, SaifDocument};
use gatspi_wave::vcd::StreamWriter;
use gatspi_wave::{SimTime, EOW};

/// Identifies one stimulus window within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowInfo {
    /// Global window index across the whole run (absolute-time order).
    pub window: usize,
    /// Memory segment this window was simulated in (0-based): the index
    /// of its batch, in the order the run settled its batches.
    pub segment: usize,
    /// Window start time (absolute ticks).
    pub start: SimTime,
    /// Window end time (absolute ticks, exclusive).
    pub end: SimTime,
}

/// Receives every finished (signal, window) waveform of a streaming run,
/// segment by segment, before the device arena is recycled.
///
/// `raw` is the Fig. 3 device encoding of the window-local waveform: an
/// optional [`INIT_ONE_MARKER`](gatspi_wave::INIT_ONE_MARKER) (initial
/// value 1), then `0`, then ascending toggle times, terminated by
/// [`EOW`](gatspi_wave::EOW) (slots past the terminator may hold stale
/// transient values — stop at `EOW`). Times are window-local; add
/// `info.start` to re-base. Within one segment, calls arrive in window
/// order and then ascending signal order.
pub trait WaveformSink {
    /// One finished (signal, window) waveform.
    fn waveform(&mut self, signal: usize, info: &WindowInfo, raw: &[i32]);
}

/// Bits of a spill pointer holding the in-chunk word offset; the chunk
/// index lives above them. 2^40 words = 4 TiB per chunk — far beyond any
/// single run's spill — leaving 2^23 chunks for incremental derivation
/// chains.
const SPILL_OFFSET_BITS: u32 = 40;
const SPILL_OFFSET_MASK: u64 = (1 << SPILL_OFFSET_BITS) - 1;

/// The built-in host-spill sink: copies every waveform into host memory in
/// the same parity-preserving layout device memory uses, so
/// [`SimResult::waveform`](crate::SimResult::waveform) can stitch
/// full-duration waveforms even after the device arena was reused between
/// segments.
///
/// Storage is *chunked*: each run appends into an open tail chunk which
/// [`SpillSink::seal`] freezes into a shared read-only `Arc<Vec<i32>>`. An
/// incremental run derives its sink from the previous result with
/// [`SpillSink::derived`] — it Arc-clones the frozen chunks and the
/// pointer table, then overwrites only the recomputed cone signals' slots
/// with pointers into its own tail chunk. Out-of-cone waveforms are thus
/// reused *pointer-identically* (the same heap allocation, not a copy) —
/// the host-side mirror of reusing live device allocations as boundary
/// stimulus.
#[derive(Debug, Default)]
pub(crate) struct SpillSink {
    pub n_signals: usize,
    /// Absolute bounds of every window spilled so far, run order.
    pub windows: Vec<(SimTime, SimTime)>,
    /// `ptrs[w * n_signals + s]`: encoded chunk/offset of the waveform
    /// (chunk index above [`SPILL_OFFSET_BITS`], even word offset below),
    /// or `u64::MAX` when absent (floating signal).
    pub ptrs: Vec<u64>,
    /// Frozen chunks, oldest first; shared with derived results.
    pub chunks: Vec<Arc<Vec<i32>>>,
    /// Open tail chunk receiving this run's deliveries; sealed into
    /// `chunks` (index `chunks.len()` at delivery time) when the run ends.
    tail: Vec<i32>,
}

impl SpillSink {
    pub fn new(n_signals: usize) -> Self {
        SpillSink {
            n_signals,
            ..SpillSink::default()
        }
    }

    /// A sink seeded with a previous (sealed) result's spill: same window
    /// table, shared frozen chunks, and every pointer carried over. Only
    /// subsequently delivered (recomputed) waveforms land in the new tail
    /// chunk; everything else stays pointer-identical to `prev`.
    pub fn derived(prev: &SpillSink) -> Self {
        debug_assert!(prev.tail.is_empty(), "derive from a sealed spill");
        SpillSink {
            n_signals: prev.n_signals,
            windows: prev.windows.clone(),
            ptrs: prev.ptrs.clone(),
            chunks: prev.chunks.clone(),
            tail: Vec::new(),
        }
    }

    /// Freezes the open tail chunk. Must be called before the sink backs a
    /// [`SimResult`](crate::SimResult); idempotent when nothing arrived.
    pub fn seal(&mut self) {
        if !self.tail.is_empty() {
            self.chunks.push(Arc::new(std::mem::take(&mut self.tail)));
        }
    }

    /// The words of `signal`'s waveform in `window`, up to and including
    /// its EOW terminator; `None` when absent (a floating signal).
    pub fn stored(&self, window: usize, signal: usize) -> Option<&[i32]> {
        let ptr = self.ptrs[window * self.n_signals + signal];
        if ptr == u64::MAX {
            return None;
        }
        let from = self.slice_from(ptr);
        let end = from
            .iter()
            .position(|&x| x == EOW)
            // panic-ok: spill-format invariant — the store pass terminates
            // every spilled waveform with EOW before the segment is retired.
            .expect("spilled waveform terminates");
        Some(&from[..=end])
    }

    /// The stored words of the waveform at encoded pointer `ptr`, from its
    /// base to the end of its chunk (readers stop at the waveform's EOW).
    pub fn slice_from(&self, ptr: u64) -> &[i32] {
        let chunk = &self.chunks[(ptr >> SPILL_OFFSET_BITS) as usize];
        &chunk[(ptr & SPILL_OFFSET_MASK) as usize..]
    }
}

impl WaveformSink for SpillSink {
    fn waveform(&mut self, signal: usize, info: &WindowInfo, raw: &[i32]) {
        debug_assert!(signal < self.n_signals);
        // The window loop delivers windows ascending, but grow to cover
        // *any* arriving window index, not just the next one: a window
        // past a gap must widen the tables rather than misindex `ptrs` (a
        // gapped window stays `(0, 0)`/`u64::MAX` — absent, like a
        // floating signal — instead of silently corrupting a neighbour's
        // slot).
        if info.window >= self.windows.len() {
            self.windows.resize(info.window + 1, (0, 0));
            self.ptrs
                .resize(self.windows.len() * self.n_signals, u64::MAX);
        }
        self.windows[info.window] = (info.start, info.end);
        if self.tail.len() % 2 == 1 {
            self.tail.push(EOW); // parity pad, never read
        }
        let base = (self.chunks.len() as u64) << SPILL_OFFSET_BITS | self.tail.len() as u64;
        // `raw` runs to the waveform's published length (its transient
        // high-water mark), padded with EOW past the live terminator; the
        // live waveform ends at its first EOW — drop the pad so the
        // long-lived spill holds only readable words.
        let live = raw
            .iter()
            .position(|&w| w == EOW)
            .map_or(raw, |e| &raw[..=e]);
        self.tail.extend_from_slice(live);
        self.ptrs[info.window * self.n_signals + signal] = base;
    }
}

/// Streams a run into VCD as it simulates: decodes each raw device
/// window, clips spillover toggles at the window end, and hands the
/// changes to a [`StreamWriter`] — which merges them time-ordered per
/// window and stitches values across window joins. Peak memory is one
/// window's changes ([`VcdSink::peak_window_changes`]), regardless of run
/// length or segment count.
///
/// Writer errors cannot surface through the infallible [`WaveformSink`]
/// trait mid-run; the sink latches the first error, ignores further
/// deliveries, and reports it from [`VcdSink::finish`].
#[derive(Debug)]
pub struct VcdSink<W: io::Write> {
    writer: StreamWriter<W>,
    /// Signal → stream index, `u32::MAX` for signals not written.
    map: Vec<u32>,
    err: Option<io::Error>,
}

impl<W: io::Write> VcdSink<W> {
    /// A sink writing every signal: `names[s]` names signal `s`. Writes
    /// the (deterministic) header immediately.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn new(out: W, design: &str, names: &[&str]) -> io::Result<Self> {
        let writer = StreamWriter::new(out, design, names)?;
        Ok(VcdSink {
            writer,
            map: (0..names.len() as u32).collect(),
            err: None,
        })
    }

    /// A sink writing only the listed `(signal, name)` pairs — e.g. just
    /// the primary outputs of a design with `n_signals` signals total.
    /// Other signals' deliveries are skipped without decoding.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn filtered(
        out: W,
        design: &str,
        n_signals: usize,
        signals: &[(usize, &str)],
        timescale: &str,
    ) -> io::Result<Self> {
        let names: Vec<&str> = signals.iter().map(|&(_, n)| n).collect();
        let writer = StreamWriter::with_timescale(out, design, &names, timescale)?;
        let mut map = vec![u32::MAX; n_signals];
        for (k, &(s, _)) in signals.iter().enumerate() {
            map[s] = k as u32;
        }
        Ok(VcdSink {
            writer,
            map,
            err: None,
        })
    }

    /// Largest number of changes buffered for any one window (see
    /// [`StreamWriter::peak_window_changes`]).
    pub fn peak_window_changes(&self) -> usize {
        self.writer.peak_window_changes()
    }

    /// Flushes the final window and returns the writer.
    ///
    /// # Errors
    ///
    /// The first error the writer raised — during the run or in this
    /// final flush.
    pub fn finish(self) -> io::Result<W> {
        if let Some(e) = self.err {
            return Err(e);
        }
        self.writer.finish()
    }
}

impl<W: io::Write> WaveformSink for VcdSink<W> {
    fn waveform(&mut self, signal: usize, info: &WindowInfo, raw: &[i32]) {
        // A signal beyond the constructed name table (a `new` call with a
        // partial name list) is skipped like a filtered-out one, instead
        // of panicking mid-run deep inside the engine.
        let idx = self.map.get(signal).copied().unwrap_or(u32::MAX);
        if idx == u32::MAX || self.err.is_some() {
            return;
        }
        let (initial, tail) = gatspi_wave::split_raw(raw);
        let wlen = info.end - info.start;
        let toggles = tail.iter().copied().take_while(|&t| t != EOW && t < wlen);
        if let Err(e) = self.writer.wave(idx as usize, info.start, initial, toggles) {
            self.err = Some(e);
        }
    }
}

/// Streams a run into SAIF: folds each raw device window's
/// `T0`/`T1`/`TC` deltas into a [`SaifAccumulator`] — per-segment deltas,
/// never whole waveforms — and finalises into a [`SaifDocument`]. Memory
/// is O(nets), independent of run length; signals that never arrive
/// (floating) are omitted, mirroring
/// [`SimResult::saif`](crate::SimResult::saif).
#[derive(Debug, Clone)]
pub struct SaifSink {
    acc: SaifAccumulator,
}

impl SaifSink {
    /// A sink accumulating every signal: `names[s]` names signal `s`.
    pub fn new(design: &str, names: Vec<String>) -> Self {
        SaifSink {
            acc: SaifAccumulator::new(design, names),
        }
    }

    /// Finalises into a document covering `[0, duration)`.
    pub fn finish(self, duration: SimTime) -> SaifDocument {
        self.acc.finish(duration)
    }
}

impl WaveformSink for SaifSink {
    fn waveform(&mut self, signal: usize, info: &WindowInfo, raw: &[i32]) {
        // Like `VcdSink`, a signal beyond the name table is skipped rather
        // than panicking mid-run.
        if signal < self.acc.n_nets() {
            self.acc.add_raw(signal, raw, info.end - info.start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatspi_wave::INIT_ONE_MARKER;

    #[test]
    fn spill_preserves_parity_and_order() {
        let mut sink = SpillSink::new(2);
        let w0 = WindowInfo {
            window: 0,
            segment: 0,
            start: 0,
            end: 100,
        };
        // 3-word waveform forces a parity pad before the next one.
        sink.waveform(0, &w0, &[0, 10, EOW]);
        sink.waveform(1, &w0, &[INIT_ONE_MARKER, 0, 20, EOW]);
        let w1 = WindowInfo {
            window: 1,
            segment: 1,
            start: 100,
            end: 200,
        };
        sink.waveform(0, &w1, &[0, EOW]);
        sink.seal();
        assert_eq!(sink.windows, vec![(0, 100), (100, 200)]);
        for w in 0..2 {
            for s in 0..2 {
                let p = sink.ptrs[w * 2 + s];
                if p != u64::MAX {
                    assert_eq!(p % 2, 0, "every spilled base stays even");
                }
            }
        }
        // Window 1, signal 1 was never produced.
        assert_eq!(sink.ptrs[3], u64::MAX);
        // Window 0, signal 1 round-trips bit-exactly.
        assert_eq!(
            &sink.slice_from(sink.ptrs[1])[..4],
            &[INIT_ONE_MARKER, 0, 20, EOW]
        );
    }

    #[test]
    fn derived_spill_shares_chunks_and_overwrites_selectively() {
        let mut base = SpillSink::new(2);
        let w0 = WindowInfo {
            window: 0,
            segment: 0,
            start: 0,
            end: 100,
        };
        base.waveform(0, &w0, &[0, 10, EOW]);
        base.waveform(1, &w0, &[0, 20, EOW]);
        base.seal();
        let mut derived = SpillSink::derived(&base);
        // Recompute only signal 1; signal 0 must stay pointer-identical.
        derived.waveform(1, &w0, &[0, 25, EOW]);
        derived.seal();
        assert_eq!(derived.ptrs[0], base.ptrs[0]);
        assert!(
            Arc::ptr_eq(&derived.chunks[0], &base.chunks[0]),
            "untouched chunk is shared, not copied"
        );
        assert_eq!(&derived.slice_from(derived.ptrs[0])[..3], &[0, 10, EOW]);
        assert_ne!(derived.ptrs[1], base.ptrs[1]);
        assert_eq!(&derived.slice_from(derived.ptrs[1])[..3], &[0, 25, EOW]);
        assert_eq!(&base.slice_from(base.ptrs[1])[..3], &[0, 20, EOW]);
        assert_eq!(derived.chunks.len(), 2);
    }

    #[test]
    fn spill_grows_over_gaps_and_out_of_order_windows() {
        let mut sink = SpillSink::new(2);
        // Window 2 arrives first (a merge path could deliver shards out
        // of order); windows 0..=1 must appear as absent, not corrupt.
        let w2 = WindowInfo {
            window: 2,
            segment: 1,
            start: 200,
            end: 300,
        };
        sink.waveform(1, &w2, &[0, 210, EOW]);
        assert_eq!(sink.windows.len(), 3);
        assert_eq!(sink.ptrs.len(), 6);
        assert_eq!(sink.windows[2], (200, 300));
        assert_eq!(&sink.ptrs[..5], &[u64::MAX; 5]);
        let p = sink.ptrs[2 * 2 + 1];
        // Window 0 arriving late lands in its own slot.
        let w0 = WindowInfo {
            window: 0,
            segment: 0,
            start: 0,
            end: 100,
        };
        sink.waveform(0, &w0, &[0, EOW]);
        sink.seal();
        assert_eq!(&sink.slice_from(p)[..3], &[0, 210, EOW]);
        assert_eq!(sink.windows[0], (0, 100));
        assert_ne!(sink.ptrs[0], u64::MAX);
        assert_eq!(sink.ptrs[2 * 2 + 1], p, "window 2 untouched");
    }

    #[test]
    fn vcd_sink_clips_rebases_and_stitches() {
        let names = ["a", "b"];
        let mut sink = VcdSink::new(Vec::new(), "top", &names).unwrap();
        let w0 = WindowInfo {
            window: 0,
            segment: 0,
            start: 0,
            end: 100,
        };
        // `a` starts high, falls at 40; a spillover toggle at 120 and a
        // ghost word past EOW must both be ignored.
        sink.waveform(0, &w0, &[INIT_ONE_MARKER, 0, 40, 120, EOW, 7]);
        sink.waveform(1, &w0, &[0, EOW]);
        let w1 = WindowInfo {
            window: 1,
            segment: 0,
            start: 100,
            end: 200,
        };
        // Window 1 of `a` opens at 0 (the 40-toggle's value): no join
        // change; its toggle at local 30 lands at absolute 130.
        sink.waveform(0, &w1, &[0, 30, EOW]);
        sink.waveform(1, &w1, &[0, EOW]);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let doc = gatspi_wave::vcd::parse(&text).unwrap();
        assert_eq!(
            doc.signals["a"],
            gatspi_wave::Waveform::from_toggles(true, &[40, 130])
        );
        assert_eq!(doc.signals["b"], gatspi_wave::Waveform::constant(false));
    }

    #[test]
    fn filtered_vcd_sink_writes_subset_only() {
        let mut sink = VcdSink::filtered(Vec::new(), "top", 3, &[(2, "out")], "1ns").unwrap();
        let w0 = WindowInfo {
            window: 0,
            segment: 0,
            start: 0,
            end: 50,
        };
        sink.waveform(0, &w0, &[0, 5, EOW]);
        sink.waveform(2, &w0, &[0, 9, EOW]);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(text.contains("$timescale 1ns $end"));
        let doc = gatspi_wave::vcd::parse(&text).unwrap();
        assert_eq!(doc.signals.len(), 1);
        assert_eq!(
            doc.signals["out"],
            gatspi_wave::Waveform::from_toggles(false, &[9])
        );
    }

    #[test]
    fn vcd_sink_latches_writer_errors_until_finish() {
        /// Fails every write after the header.
        struct Failing {
            writes: usize,
        }
        impl io::Write for Failing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                if self.writes > 1 {
                    Err(io::Error::other("disk full"))
                } else {
                    Ok(buf.len())
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = VcdSink::new(Failing { writes: 0 }, "top", &["a"]).unwrap();
        let mk = |window, start, end| WindowInfo {
            window,
            segment: 0,
            start,
            end,
        };
        // First window buffers fine; the second's flush hits the error,
        // which must surface from finish() rather than vanish.
        sink.waveform(0, &mk(0, 0, 10), &[0, 5, EOW]);
        sink.waveform(0, &mk(1, 10, 20), &[0, 5, EOW]);
        assert!(sink.finish().is_err());
    }

    #[test]
    fn saif_sink_matches_whole_run_document() {
        let a = gatspi_wave::Waveform::from_toggles(false, &[10, 130]);
        let mut sink = SaifSink::new("top", vec!["a".into(), "quiet".into()]);
        for (w, (start, end)) in [(0, (0, 100)), (1, (100, 200))] {
            let info = WindowInfo {
                window: w,
                segment: 0,
                start,
                end,
            };
            sink.waveform(0, &info, a.window(start, end).raw());
        }
        let doc = sink.finish(200);
        assert_eq!(
            doc,
            gatspi_wave::saif::SaifDocument::from_waveforms("top", 200, [("a", &a)])
        );
    }
}
