//! Minimal VCD (Value Change Dump) reader and writer for 2-value scalar
//! signals.
//!
//! Re-simulation consumes "testbench waveforms" recorded by earlier RTL
//! simulation; VCD is the interchange format those come in. Only the subset
//! needed for scalar 2-value stimulus is implemented: `$timescale`,
//! `$scope`/`$upscope`, 1-bit `$var wire` declarations, `$dumpvars`, `#time`
//! stamps and `0id`/`1id` scalar changes. `x`/`z` values are coerced to 0
//! (2-value simulation) and counted so callers can report the coercion.

use std::collections::BTreeMap;
use std::io::Write as IoWrite;

use crate::{Result, SimTime, WaveError, Waveform, WaveformBuilder};

/// Default `$timescale` unit emitted by [`write()`] and [`StreamWriter::new`].
pub const DEFAULT_TIMESCALE: &str = "1ps";

/// A parsed VCD file: named waveforms plus bookkeeping.
#[derive(Debug, Clone)]
pub struct VcdDocument {
    /// Signal name → waveform, ordered by name.
    pub signals: BTreeMap<String, Waveform>,
    /// Number of `x`/`z` values coerced to 0 during parsing.
    pub coerced_unknowns: u64,
    /// Last timestamp seen.
    pub end_time: SimTime,
}

/// Writes waveforms as a VCD file.
///
/// Signals are emitted under a single scope named `design`.
///
/// # Example
///
/// ```
/// use gatspi_wave::{vcd, Waveform};
///
/// let a = Waveform::from_toggles(false, &[5, 9]);
/// let text = vcd::write("top", [("a", &a)]);
/// let parsed = vcd::parse(&text).unwrap();
/// assert_eq!(parsed.signals["a"], a);
/// ```
pub fn write<'a>(design: &str, waves: impl IntoIterator<Item = (&'a str, &'a Waveform)>) -> String {
    write_with_timescale(design, waves, DEFAULT_TIMESCALE)
}

/// [`write()`] with an explicit `$timescale` unit (e.g. `"1ns"`).
pub fn write_with_timescale<'a>(
    design: &str,
    waves: impl IntoIterator<Item = (&'a str, &'a Waveform)>,
    timescale: &str,
) -> String {
    let waves: Vec<(&str, &Waveform)> = waves.into_iter().collect();
    let mut formatter = ChangeFormatter::new(waves.len());
    let mut out = Vec::new();
    formatter.push_header(&mut out, design, waves.iter().map(|&(n, _)| n), timescale);

    // Format in slices of time holding about `WRITE_SLICE_CHANGES` changes
    // each (exactly, for evenly spread changes), so the sort buffer stays
    // small however long the document is.
    let changes: usize = waves.iter().map(|(_, w)| w.toggle_count() + 1).sum();
    let end = waves.iter().map(|(_, w)| w.last_time()).max();
    let end = end.map_or(0, |t| t as u64 + 1);
    let step = end.div_ceil(changes.div_ceil(WRITE_SLICE_CHANGES).max(1) as u64);
    let mut keys = Vec::new();
    let mut rest: Vec<_> = waves.iter().map(|(_, w)| w.iter().peekable()).collect();
    let mut upto = 0;
    while upto < end {
        upto += step;
        for (i, changes) in rest.iter_mut().enumerate() {
            while let Some((t, v)) = changes.next_if(|&(t, _)| (t as u64) < upto) {
                keys.push(pack_change(t, i as u32, v));
            }
        }
        formatter.format(&mut keys, &mut out);
        keys.clear();
    }
    // The header repeats the caller's `&str`s; everything else is ASCII.
    String::from_utf8(out).expect("VCD text is UTF-8")
}

/// Changes [`write()`] sorts and formats at a time.
const WRITE_SLICE_CHANGES: usize = 1 << 16;

/// `cur`-state sentinel for a signal that has not been dumped yet.
const VAL_NONE: u8 = 2;

/// One value change packed for sorting: time in the top 31 bits, signal
/// index below it, value in bit 0 — so ascending `u64` order is the VCD
/// body's `(time, signal)` order. `time` must be non-negative.
fn pack_change(time: SimTime, signal: u32, value: bool) -> u64 {
    debug_assert!(time >= 0, "packed times are non-negative");
    (time as u64) << 33 | u64::from(signal) << 1 | u64::from(value)
}

/// Signal `i`'s printable short identifier (VCD id chars are `!`..=`~`)
/// and its length: at most five characters for a 32-bit index.
fn encode_id(mut i: usize) -> ([u8; 5], usize) {
    const BASE: usize = 94;
    let (mut id, mut len) = ([0u8; 5], 0);
    loop {
        id[len] = b'!' + (i % BASE) as u8;
        len += 1;
        i /= BASE;
        if i == 0 {
            return (id, len);
        }
        i -= 1;
    }
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The one VCD body formatter: orders a window's packed changes and
/// appends them as `#t` blocks, carrying the `$dumpvars` and last-stamp
/// state from window to window.
#[derive(Debug)]
struct ChangeFormatter {
    /// Per-signal change line — a value placeholder, the id, a newline —
    /// padded to eight bytes so it is copied as one word and then cut to
    /// its length, which byte 7 holds (a line is at most seven bytes).
    lines: Vec<[u8; 8]>,
    /// Most recent `#time` stamp written.
    last_time: Option<SimTime>,
    /// The `$dumpvars` block has been written (it wraps the first change
    /// block).
    wrote_dumpvars: bool,
    /// The buffers that order a window's changes.
    order: WindowOrder,
}

/// A window is ordered by the counting pass only while its time span is at
/// most this many times its change count, so the histogram stays
/// O(changes) however sparse the window.
const SPAN_PER_CHANGE: u64 = 4;

/// Orders a window's packed changes (see [`pack_change`]) ascending.
///
/// One stable counting pass over window-relative time puts them in time
/// order; a timestamp's changes keep their arrival order, which is already
/// ascending by signal when they arrived signal by signal — as the
/// engine's drain and [`write()`]'s per-slice loop deliver them. One
/// `is_sorted` check catches any other arrival order (a filtered sink
/// over an unsorted signal list) and sorts it outright, as it does a
/// window too sparse for the counting pass. Both buffers are reused, so
/// memory stays O(one window's changes).
#[derive(Debug, Default)]
struct WindowOrder {
    /// Per-time bucket starts of the counting pass, `span + 1` long.
    starts: Vec<u32>,
    /// The counting pass's output.
    sorted: Vec<u64>,
}

impl WindowOrder {
    /// `keys` in ascending order: sorted in place, or the counting pass's
    /// output.
    fn sort<'a>(&'a mut self, keys: &'a mut [u64]) -> &'a [u64] {
        let (lo, hi) = keys
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        let t0 = lo >> 33;
        let n = keys.len() as u64;
        if n < 2 || n > u64::from(u32::MAX) || (hi >> 33) - t0 >= SPAN_PER_CHANGE * n {
            keys.sort_unstable();
            return keys;
        }
        let bucket = |k: u64| ((k >> 33) - t0) as usize;
        self.starts.clear();
        self.starts.resize(bucket(hi) + 2, 0);
        for &k in keys.iter() {
            self.starts[bucket(k) + 1] += 1;
        }
        for i in 1..self.starts.len() {
            self.starts[i] += self.starts[i - 1];
        }
        self.sorted.clear();
        self.sorted.resize(keys.len(), 0);
        for &k in keys.iter() {
            let at = &mut self.starts[bucket(k)];
            self.sorted[*at as usize] = k;
            *at += 1;
        }
        if !self.sorted.is_sorted() {
            self.sorted.sort_unstable();
        }
        &self.sorted
    }
}

impl ChangeFormatter {
    fn new(n_signals: usize) -> Self {
        // A packed key holds a 32-bit signal index, whose id is at most
        // five characters — the line template's room.
        assert!(
            u32::try_from(n_signals).is_ok(),
            "a VCD stream declares at most 2^32 signals"
        );
        let lines = (0..n_signals)
            .map(|i| {
                let (id, len) = encode_id(i);
                let mut line = [0u8; 8];
                line[1..=len].copy_from_slice(&id[..len]);
                line[1 + len] = b'\n';
                line[7] = len as u8 + 2;
                line
            })
            .collect();
        ChangeFormatter {
            lines,
            last_time: None,
            wrote_dumpvars: false,
            order: WindowOrder::default(),
        }
    }

    /// Emits the deterministic VCD header shared by [`write()`] and
    /// [`StreamWriter`]: version, timescale and one `design` scope
    /// declaring signal `i` of `names` under the id of its change line.
    /// No `$date` line — the output depends only on the inputs, so equal
    /// runs produce byte-identical files.
    fn push_header<'a>(
        &self,
        out: &mut Vec<u8>,
        design: &str,
        names: impl Iterator<Item = &'a str>,
        timescale: &str,
    ) {
        // Writing into a `Vec<u8>` cannot fail.
        let _ = writeln!(out, "$version gatspi-wave $end");
        let _ = writeln!(out, "$timescale {timescale} $end");
        let _ = writeln!(out, "$scope module {design} $end");
        for (line, name) in self.lines.iter().zip(names) {
            out.extend_from_slice(b"$var wire 1 ");
            out.extend_from_slice(&line[1..usize::from(line[7]) - 1]);
            let _ = writeln!(out, " {name} $end");
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
    }

    /// Orders `keys` (see [`pack_change`] and [`WindowOrder`]) and appends
    /// their change blocks to `out`. A stamp equal to the previous window's
    /// last one is not repeated; the `$dumpvars` block opened by the first
    /// stamp ever written closes at the next stamp or at the end of its
    /// window.
    fn format(&mut self, keys: &mut [u64], out: &mut Vec<u8>) {
        let keys = self.order.sort(keys);
        let mut dumpvars_open = false;
        for &key in keys {
            let t = (key >> 33) as SimTime;
            if self.last_time != Some(t) {
                if dumpvars_open {
                    out.extend_from_slice(b"$end\n");
                    dumpvars_open = false;
                }
                out.push(b'#');
                push_decimal(out, t as u32);
                out.push(b'\n');
                if !self.wrote_dumpvars {
                    out.extend_from_slice(b"$dumpvars\n");
                    self.wrote_dumpvars = true;
                    dumpvars_open = true;
                }
                self.last_time = Some(t);
            }
            let line = &self.lines[(key >> 1) as u32 as usize];
            let at = out.len();
            out.extend_from_slice(line);
            out[at] = b'0' + (key & 1) as u8;
            out.truncate(at + line[7] as usize);
        }
        if dumpvars_open {
            out.extend_from_slice(b"$end\n");
        }
    }
}

/// Incremental VCD writer with memory bounded by one stimulus window.
///
/// The whole-document [`write()`] needs every waveform in memory before the
/// first byte leaves; `StreamWriter` instead accepts each signal's changes
/// window by window — the unit a streaming simulation run produces — and
/// emits one time-ordered change block per window. Buffering is O(changes
/// in the current window): every change is one packed `u64` key (time,
/// signal, value) pushed onto one reused list; when a call reports a new
/// window start, the previous window's keys are ordered — by one stable
/// counting pass over window-relative time, a full sort only when the
/// changes of one stamp did not arrive signal-ascending or the window is
/// too sparse — and formatted into a reused byte buffer that leaves in a
/// single `write_all`. It is the formatter [`write()`] uses, so both
/// produce the same bytes for the same changes.
///
/// Windows must arrive in ascending start order (checked), each signal at
/// most once per window, with window-local toggle times already clipped to
/// the window. Values are stitched across window joins: a window whose
/// initial value equals the signal's last written value emits no change,
/// so the output parses back exactly as the concatenated waveform.
///
/// # Example
///
/// ```
/// use gatspi_wave::{vcd, Waveform};
///
/// # fn main() -> std::io::Result<()> {
/// let w = Waveform::from_toggles(true, &[5, 14]);
/// let mut sw = vcd::StreamWriter::new(Vec::new(), "top", &["a"])?;
/// for (start, end) in [(0, 10), (10, 20)] {
///     let win = w.window(start, end);
///     let toggles: Vec<i32> = win.iter().skip(1).map(|(t, _)| t).collect();
///     sw.wave(0, start, win.initial_value(), toggles)?;
/// }
/// let text = String::from_utf8(sw.finish()?).unwrap();
/// assert_eq!(vcd::parse(&text).unwrap().signals["a"], w);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamWriter<W: IoWrite> {
    out: W,
    formatter: ChangeFormatter,
    /// Last buffered value per signal (`0`, `1`, or [`VAL_NONE`]).
    cur: Vec<u8>,
    /// Packed changes of the window currently buffering.
    keys: Vec<u64>,
    /// Formatted bytes of the window being flushed.
    buf: Vec<u8>,
    /// Start time of the window currently buffering; later windows may
    /// not start before it.
    window_start: SimTime,
    peak_pending: usize,
}

fn invalid_input(detail: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, detail)
}

impl<W: IoWrite> StreamWriter<W> {
    /// Starts a stream on `out`, writing the header: `names[s]` declares
    /// signal `s`. Uses [`DEFAULT_TIMESCALE`].
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn new(out: W, design: &str, names: &[&str]) -> std::io::Result<Self> {
        Self::with_timescale(out, design, names, DEFAULT_TIMESCALE)
    }

    /// [`StreamWriter::new`] with an explicit `$timescale` unit.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn with_timescale(
        mut out: W,
        design: &str,
        names: &[&str],
        timescale: &str,
    ) -> std::io::Result<Self> {
        let formatter = ChangeFormatter::new(names.len());
        let mut buf = Vec::new();
        formatter.push_header(&mut buf, design, names.iter().copied(), timescale);
        out.write_all(&buf)?;
        Ok(StreamWriter {
            out,
            formatter,
            cur: vec![VAL_NONE; names.len()],
            keys: Vec::new(),
            buf,
            window_start: 0,
            peak_pending: 0,
        })
    }

    /// Buffers one signal's changes for the window starting at `start`
    /// (absolute time): `initial` is the signal's value at `start`, and
    /// `toggles` are the window-local times (strictly increasing, `> 0`,
    /// clipped to the window) at which it flips. A `start` differing from
    /// the window currently buffering flushes that window first.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] — with none of the call's
    /// changes buffered — for a negative `start`, a `start` below an
    /// earlier window's (the `#t` stamps would run backwards) or a toggle
    /// time that is not positive or overflows [`SimTime`]; otherwise
    /// propagates writer errors from the flush.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is out of range.
    pub fn wave<I>(
        &mut self,
        signal: usize,
        start: SimTime,
        initial: bool,
        toggles: I,
    ) -> std::io::Result<()>
    where
        I: IntoIterator<Item = SimTime>,
    {
        if start < 0 {
            return Err(invalid_input("window start is negative"));
        }
        if start < self.window_start {
            return Err(invalid_input(
                "windows must arrive in ascending start order",
            ));
        }
        if start != self.window_start {
            self.flush_window()?;
            self.window_start = start;
        }
        let mark = self.keys.len();
        // Window-join stitching: a change at the window start is emitted
        // only for a signal never dumped before (its time-0 entry, which
        // VCD readers take as the initial value) or whose value actually
        // differs — a window opening at the value the previous window
        // closed on writes nothing.
        if self.cur[signal] != u8::from(initial) {
            self.keys.push(pack_change(start, signal as u32, initial));
        }
        let mut v = initial;
        for t in toggles {
            let Some(at) = start.checked_add(t).filter(|_| t > 0) else {
                self.keys.truncate(mark);
                return Err(invalid_input("toggle time is not a positive SimTime"));
            };
            v = !v;
            self.keys.push(pack_change(at, signal as u32, v));
        }
        self.cur[signal] = u8::from(v);
        Ok(())
    }

    /// Largest number of changes ever buffered for one window — the peak
    /// memory footprint of the stream, in change entries. Stays O(one
    /// window) regardless of run length.
    pub fn peak_window_changes(&self) -> usize {
        self.peak_pending
    }

    /// Flushes the buffered window and the underlying writer, returning it.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.flush_window()?;
        self.out.flush()?;
        Ok(self.out)
    }

    /// Writes the buffered window as time-ordered `#t` change blocks, in
    /// one call so a raw `File` writer still sees few large writes.
    fn flush_window(&mut self) -> std::io::Result<()> {
        self.peak_pending = self.peak_pending.max(self.keys.len());
        if self.keys.is_empty() {
            return Ok(());
        }
        self.buf.clear();
        self.formatter.format(&mut self.keys, &mut self.buf);
        self.keys.clear();
        self.out.write_all(&self.buf)
    }
}

/// Parses a VCD file.
///
/// # Errors
///
/// Returns [`WaveError::Parse`] on structural problems (unknown ids, bad
/// timestamps, missing declarations). Vector (`b...`) changes and real
/// values are rejected — stimulus for gate-level re-simulation is scalar.
pub fn parse(src: &str) -> Result<VcdDocument> {
    let mut id_to_name: BTreeMap<String, String> = BTreeMap::new();
    let mut builders: BTreeMap<String, (WaveformBuilder, bool)> = BTreeMap::new();
    let mut coerced = 0u64;
    let mut time: SimTime = 0;
    let mut seen_enddefs = false;
    let mut scope_depth = 0usize;

    let mut lines = src.lines().enumerate();
    while let Some((lineno, line)) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let mut words = line.split_whitespace();
        let Some(first) = words.next() else {
            continue;
        };
        match first {
            "$date" | "$version" | "$comment" | "$timescale" => {
                // Consume until $end (possibly across lines).
                let mut rest: Vec<&str> = words.collect();
                while !rest.contains(&"$end") {
                    match lines.next() {
                        Some((_, l)) => rest = l.split_whitespace().collect(),
                        None => {
                            return Err(WaveError::Parse {
                                line: lineno,
                                detail: format!("unterminated {first}"),
                            })
                        }
                    }
                }
            }
            "$scope" => scope_depth += 1,
            "$upscope" => scope_depth = scope_depth.saturating_sub(1),
            "$enddefinitions" => seen_enddefs = true,
            "$dumpvars" | "$end" | "$dumpall" | "$dumpon" | "$dumpoff" => {}
            "$var" => {
                // $var wire 1 <id> <name> [$end]
                let kind = words.next().unwrap_or("");
                let width = words.next().unwrap_or("");
                let id = words.next().unwrap_or("");
                let name = words.next().unwrap_or("");
                if kind.is_empty() || id.is_empty() || name.is_empty() {
                    return Err(WaveError::Parse {
                        line: lineno,
                        detail: "malformed $var".into(),
                    });
                }
                if width != "1" {
                    return Err(WaveError::Parse {
                        line: lineno,
                        detail: format!("only 1-bit signals supported, `{name}` is {width}"),
                    });
                }
                // Some tools write the bit-select as a separate token:
                // `x [3] $end`. Consume it, so the trailing token check
                // below sees the `$end` (peeking without consuming left
                // the bit-select *and* `$end` unexamined).
                let mut full = name.to_string();
                let mut tail = words.next();
                if let Some(tok) = tail {
                    if tok.starts_with('[') && tok != "$end" {
                        full.push_str(tok);
                        tail = words.next();
                    }
                }
                if let Some(tok) = tail {
                    if tok != "$end" {
                        return Err(WaveError::Parse {
                            line: lineno,
                            detail: format!("unexpected `{tok}` in $var for `{full}`"),
                        });
                    }
                }
                id_to_name.insert(id.to_string(), full);
            }
            _ if first.starts_with('#') => {
                let t: i64 = first[1..].parse().map_err(|_| WaveError::Parse {
                    line: lineno,
                    detail: format!("bad timestamp `{first}`"),
                })?;
                if t < i64::from(time) {
                    return Err(WaveError::Parse {
                        line: lineno,
                        detail: format!("timestamp {t} goes backwards"),
                    });
                }
                time = t.try_into().map_err(|_| WaveError::Parse {
                    line: lineno,
                    detail: format!("timestamp {t} out of range"),
                })?;
            }
            _ => {
                if !seen_enddefs {
                    return Err(WaveError::Parse {
                        line: lineno,
                        detail: format!("value change before $enddefinitions: `{line}`"),
                    });
                }
                let (vch, id) = first.split_at(1);
                let v = match vch {
                    "0" => false,
                    "1" => true,
                    "x" | "X" | "z" | "Z" => {
                        coerced += 1;
                        false
                    }
                    "b" | "B" | "r" | "R" => {
                        return Err(WaveError::Parse {
                            line: lineno,
                            detail: "vector/real changes not supported".into(),
                        })
                    }
                    _ => {
                        return Err(WaveError::Parse {
                            line: lineno,
                            detail: format!("unrecognised change `{first}`"),
                        })
                    }
                };
                let name = id_to_name.get(id).ok_or_else(|| WaveError::Parse {
                    line: lineno,
                    detail: format!("change on undeclared id `{id}`"),
                })?;
                if time == 0 {
                    // Time-0 changes define initial values (last one wins).
                    builders.insert(name.clone(), (WaveformBuilder::new(v), true));
                } else {
                    let (b, _) = builders
                        .entry(name.clone())
                        .or_insert_with(|| (WaveformBuilder::new(false), false));
                    b.set_value(time, v).map_err(|_| WaveError::Parse {
                        line: lineno,
                        detail: format!("non-monotonic change on `{name}`"),
                    })?;
                }
            }
        }
    }
    let _ = scope_depth;

    // Signals declared but never dumped default to constant 0.
    for name in id_to_name.values() {
        builders
            .entry(name.clone())
            .or_insert_with(|| (WaveformBuilder::new(false), true));
    }

    let signals = builders
        .into_iter()
        .map(|(name, (b, _))| (name, b.finish()))
        .collect();
    Ok(VcdDocument {
        signals,
        coerced_unknowns: coerced,
        end_time: time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Waveform;

    /// Signal `i`'s identifier as text.
    fn id_for(i: usize) -> String {
        let (id, len) = encode_id(i);
        String::from_utf8(id[..len].to_vec()).unwrap()
    }

    #[test]
    fn roundtrip_two_signals() {
        let a = Waveform::from_toggles(false, &[5, 9]);
        let b = Waveform::from_toggles(true, &[7]);
        let text = write("top", [("a", &a), ("b", &b)]);
        let doc = parse(&text).unwrap();
        assert_eq!(doc.signals["a"], a);
        assert_eq!(doc.signals["b"], b);
        assert_eq!(doc.coerced_unknowns, 0);
        assert_eq!(doc.end_time, 9);
    }

    #[test]
    fn roundtrip_many_signals_exercises_multi_char_ids() {
        let waves: Vec<(String, Waveform)> = (0..200)
            .map(|i| {
                (
                    format!("sig{i}"),
                    Waveform::from_toggles(i % 2 == 0, &[1 + i]),
                )
            })
            .collect();
        let text = write("wide", waves.iter().map(|(n, w)| (n.as_str(), w)));
        let doc = parse(&text).unwrap();
        for (n, w) in &waves {
            assert_eq!(&doc.signals[n], w, "signal {n}");
        }
    }

    #[test]
    fn x_values_coerced() {
        let text =
            "$timescale 1ps $end\n$var wire 1 ! a $end\n$enddefinitions $end\n#0\nx!\n#5\n1!\n";
        let doc = parse(text).unwrap();
        assert_eq!(doc.coerced_unknowns, 1);
        assert!(!doc.signals["a"].initial_value());
        assert!(doc.signals["a"].value_at(5));
    }

    #[test]
    fn undumped_signal_defaults_to_zero() {
        let text = "$var wire 1 ! a $end\n$enddefinitions $end\n#10\n";
        let doc = parse(text).unwrap();
        assert_eq!(doc.signals["a"], Waveform::constant(false));
    }

    #[test]
    fn rejects_vectors() {
        let text = "$var wire 4 ! a $end\n$enddefinitions $end\n";
        assert!(parse(text).is_err());
        let text2 = "$var wire 1 ! a $end\n$enddefinitions $end\n#0\nb1010 !\n";
        assert!(parse(text2).is_err());
    }

    #[test]
    fn rejects_backwards_time() {
        let text = "$var wire 1 ! a $end\n$enddefinitions $end\n#5\n1!\n#3\n0!\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn rejects_unknown_id() {
        let text = "$var wire 1 ! a $end\n$enddefinitions $end\n#1\n1?\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn header_is_deterministic_with_configurable_timescale() {
        let a = Waveform::from_toggles(false, &[5]);
        let text = write("top", [("a", &a)]);
        assert!(!text.contains("$date"), "no $date: {text}");
        assert!(text.contains("$timescale 1ps $end"));
        let ns = write_with_timescale("top", [("a", &a)], "1ns");
        assert!(ns.contains("$timescale 1ns $end"));
        assert_eq!(text, write("top", [("a", &a)]), "byte-identical reruns");
        // The streaming writer emits the same header.
        let sw = StreamWriter::new(Vec::new(), "top", &["a"]).unwrap();
        let header = String::from_utf8(sw.finish().unwrap()).unwrap();
        assert!(
            text.starts_with(&header),
            "shared header:\n{header}\n{text}"
        );
    }

    #[test]
    fn parse_consumes_spaced_bit_select() {
        let text = "$var wire 1 ! x [3] $end\n$var wire 1 \" y $end\n\
                    $enddefinitions $end\n#0\n1!\n#5\n0!\n";
        let doc = parse(text).unwrap();
        assert_eq!(doc.signals["x[3]"], Waveform::from_toggles(true, &[5]));
        assert_eq!(doc.signals["y"], Waveform::constant(false));
        // Garbage after the name (not a bit-select, not $end) is an error.
        assert!(parse("$var wire 1 ! x garbage $end\n$enddefinitions $end\n").is_err());
    }

    #[test]
    fn stream_writer_matches_whole_document_writer() {
        let waves: Vec<(String, Waveform)> = (0..40)
            .map(|i: i32| {
                let toggles: Vec<i32> = (1..=(i % 7)).map(|k| k * 9 + i).collect();
                (
                    format!("s{i}"),
                    Waveform::from_toggles(i % 3 == 0, &toggles),
                )
            })
            .collect();
        let names: Vec<&str> = waves.iter().map(|(n, _)| n.as_str()).collect();
        let mut sw = StreamWriter::new(Vec::new(), "top", &names).unwrap();
        for (start, end) in [(0i32, 25), (25, 50), (50, 100)] {
            for (s, (_, w)) in waves.iter().enumerate() {
                let win = w.window(start, end);
                let toggles: Vec<i32> = win.iter().skip(1).map(|(t, _)| t).collect();
                sw.wave(s, start, win.initial_value(), toggles).unwrap();
            }
        }
        let peak = sw.peak_window_changes();
        let text = String::from_utf8(sw.finish().unwrap()).unwrap();
        let doc = parse(&text).unwrap();
        for (n, w) in &waves {
            assert_eq!(&doc.signals[n], w, "signal {n}");
        }
        // Peak buffering is one window's changes, not the whole run's.
        let total: usize = waves.iter().map(|(_, w)| w.toggle_count() + 1).sum();
        assert!(peak < total, "peak {peak} must undercut total {total}");
        // Same parse as the whole-document writer on the same waves.
        let whole = write("top", waves.iter().map(|(n, w)| (n.as_str(), w)));
        let wdoc = parse(&whole).unwrap();
        assert_eq!(doc.signals, wdoc.signals);
    }

    #[test]
    fn stream_writer_skips_spurious_join_changes() {
        // One toggle at t=7; windows [0,10) and [10,20) — the second
        // window opens at the value the first closed on, so the output
        // must contain exactly two changes (t=0 initial, t=7).
        let w = Waveform::from_toggles(false, &[7]);
        let mut sw = StreamWriter::new(Vec::new(), "top", &["a"]).unwrap();
        for (start, end) in [(0, 10), (10, 20)] {
            let win = w.window(start, end);
            let toggles: Vec<i32> = win.iter().skip(1).map(|(t, _)| t).collect();
            sw.wave(0, start, win.initial_value(), toggles).unwrap();
        }
        let text = String::from_utf8(sw.finish().unwrap()).unwrap();
        assert_eq!(text.matches("#").count(), 2, "no join change: {text}");
        assert_eq!(parse(&text).unwrap().signals["a"], w);
    }

    #[test]
    fn stream_writer_quiet_signal_dumps_only_initial() {
        let mut sw = StreamWriter::new(Vec::new(), "top", &["hi", "lo"]).unwrap();
        for (start, _end) in [(0, 10), (10, 20)] {
            sw.wave(0, start, true, std::iter::empty()).unwrap();
            sw.wave(1, start, false, std::iter::empty()).unwrap();
        }
        let text = String::from_utf8(sw.finish().unwrap()).unwrap();
        let doc = parse(&text).unwrap();
        assert_eq!(doc.signals["hi"], Waveform::constant(true));
        assert_eq!(doc.signals["lo"], Waveform::constant(false));
    }

    /// Streams `waves` window by window (`cuts` are the window ends), never
    /// delivering the signals flagged in `skip`.
    fn stream(waves: &[Waveform], cuts: &[SimTime], skip: &[bool]) -> (String, usize) {
        let names: Vec<String> = (0..waves.len()).map(|i| format!("s{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut sw = StreamWriter::new(Vec::new(), "top", &names).unwrap();
        let mut start = 0;
        for &end in cuts {
            for (s, w) in waves.iter().enumerate().filter(|&(s, _)| !skip[s]) {
                let win = w.window(start, end);
                let toggles = win.iter().skip(1).map(|(t, _)| t);
                sw.wave(s, start, win.initial_value(), toggles).unwrap();
            }
            start = end;
        }
        let peak = sw.peak_window_changes();
        (String::from_utf8(sw.finish().unwrap()).unwrap(), peak)
    }

    /// Seeded differential test: whatever the signals and windows — equal
    /// times on many signals, windows opening on an unchanged value, quiet
    /// and never-delivered signals, windows without a change, one-signal
    /// streams — the streamed text is byte-for-byte the whole-document
    /// writer's and parses back to the waveforms.
    #[test]
    fn stream_writer_is_byte_identical_to_whole_document_writer() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for case in 0..300 {
            let n = if case % 10 == 0 {
                1
            } else {
                1 + next(120) as usize
            };
            // Windows of uneven length; times drawn from a small range so
            // signals share stamps and some windows stay empty.
            let mut cuts: Vec<SimTime> = Vec::new();
            for _ in 0..1 + next(6) {
                cuts.push(cuts.last().copied().unwrap_or(0) + 1 + next(40) as SimTime);
            }
            let end = *cuts.last().unwrap();
            let busy_until = 1 + next(end as u64) as SimTime;
            let mut skip = vec![false; n];
            let waves: Vec<Waveform> = (0..n)
                .map(|s| {
                    // Signal 0 is always delivered, so the stream is never
                    // empty where the document is not.
                    skip[s] = s > 0 && next(8) == 0;
                    let mut toggles: Vec<SimTime> = (0..next(7))
                        .map(|_| 1 + next(busy_until as u64) as SimTime)
                        .filter(|&t| t < end)
                        .collect();
                    toggles.sort_unstable();
                    toggles.dedup();
                    if skip[s] {
                        Waveform::constant(false)
                    } else {
                        Waveform::from_toggles(next(2) == 1, &toggles)
                    }
                })
                .collect();

            let (streamed, peak) = stream(&waves, &cuts, &skip);
            let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
            let whole = write("top", names.iter().map(String::as_str).zip(&waves));
            // A never-delivered signal is declared but not dumped; the
            // document writer dumps its constant 0 at time 0.
            let expected: String = whole
                .split_inclusive('\n')
                .filter(|line| {
                    let undumped = |s: usize| skip[s] && line[1..].trim_end() == id_for(s);
                    !(line.starts_with('0') && (0..n).any(undumped))
                })
                .collect();
            assert_eq!(streamed, expected, "case {case}");

            let doc = parse(&streamed).unwrap();
            for (s, w) in waves.iter().enumerate() {
                assert_eq!(&doc.signals[&names[s]], w, "case {case} signal {s}");
            }
            let total: usize = waves.iter().map(|w| w.toggle_count() + 1).sum();
            assert!(peak <= total, "case {case}: peak {peak} of {total}");
        }
    }

    #[test]
    fn write_slices_long_documents_without_changing_them() {
        // More changes than one slice holds, bunched at the far end of a
        // long quiet stretch: several slices, most of them empty.
        let toggles: Vec<SimTime> = (0..WRITE_SLICE_CHANGES as SimTime)
            .map(|i| 50_000_000 + i)
            .collect();
        let a = Waveform::from_toggles(true, &toggles);
        let b = Waveform::from_toggles(false, &toggles[1..]);
        let text = write("top", [("a", &a), ("b", &b)]);
        assert_eq!(text.matches("$dumpvars").count(), 1);
        assert_eq!(text.matches("$end\n").count(), 8, "the header's seven + 1");
        let stamps: Vec<&str> = text.lines().filter(|l| l.starts_with('#')).collect();
        assert_eq!(stamps.len(), toggles.len() + 1, "one stamp per time");
        let doc = parse(&text).unwrap();
        assert_eq!(doc.signals["a"], a);
        assert_eq!(doc.signals["b"], b);
    }

    #[test]
    fn stream_writer_rejects_what_its_keys_cannot_order() {
        let kind = |r: std::io::Result<()>| r.unwrap_err().kind();
        let mut sw = StreamWriter::new(Vec::new(), "top", &["a", "b"]).unwrap();
        sw.wave(0, 0, false, [4]).unwrap();
        sw.wave(0, 10, true, [3]).unwrap();
        // An earlier window after a later one would stamp `#5` after `#13`.
        assert_eq!(
            kind(sw.wave(1, 0, false, [5])),
            std::io::ErrorKind::InvalidInput
        );
        assert_eq!(
            kind(sw.wave(1, -10, false, [15])),
            std::io::ErrorKind::InvalidInput
        );
        // A bad toggle leaves nothing of its delivery behind.
        assert_eq!(
            kind(sw.wave(1, 10, true, [2, 0])),
            std::io::ErrorKind::InvalidInput
        );
        assert_eq!(
            kind(sw.wave(1, 10, true, [2, SimTime::MAX])),
            std::io::ErrorKind::InvalidInput
        );
        sw.wave(1, 10, false, [6]).unwrap();
        let text = String::from_utf8(sw.finish().unwrap()).unwrap();
        let doc = parse(&text).unwrap();
        assert_eq!(doc.signals["a"], Waveform::from_toggles(false, &[4, 13]));
        assert_eq!(doc.signals["b"], Waveform::from_toggles(false, &[16]));
    }

    /// Streams one window `[0, end)` of `waves`, delivering signals in
    /// `order`; returns the text, the peak buffered changes and the
    /// counting pass's histogram capacity after the flush.
    fn stream_one_window(
        waves: &[Waveform],
        end: SimTime,
        order: &[usize],
    ) -> (String, usize, usize) {
        let names: Vec<String> = (0..waves.len()).map(|i| format!("s{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut sw = StreamWriter::new(Vec::new(), "top", &names).unwrap();
        for &s in order {
            let win = waves[s].window(0, end);
            sw.wave(
                s,
                0,
                win.initial_value(),
                win.iter().skip(1).map(|(t, _)| t),
            )
            .unwrap();
        }
        sw.flush_window().unwrap();
        let (peak, histogram) = (
            sw.peak_window_changes(),
            sw.formatter.order.starts.capacity(),
        );
        (
            String::from_utf8(sw.finish().unwrap()).unwrap(),
            peak,
            histogram,
        )
    }

    #[test]
    fn equal_time_changes_arriving_signal_descending_are_reordered() {
        // Five signals flipping at the same three times, delivered last
        // signal first: the counting pass leaves each stamp's changes
        // descending, and the check behind it sorts them.
        let waves: Vec<Waveform> = (0..5)
            .map(|s| Waveform::from_toggles(s % 2 == 0, &[3, 7, 12]))
            .collect();
        let (text, peak, histogram) = stream_one_window(&waves, 20, &[4, 3, 2, 1, 0]);
        let names: Vec<String> = (0..5).map(|i| format!("s{i}")).collect();
        assert_eq!(
            text,
            write("top", names.iter().map(String::as_str).zip(&waves))
        );
        assert_eq!(peak, 5 * 4, "every signal's initial value and three flips");
        assert!(histogram > 0, "a 12-tick span over 20 changes is counted");
    }

    #[test]
    fn sparse_window_is_ordered_without_a_span_sized_histogram() {
        // Three changes over 10^9 ticks: the window is sorted outright,
        // and the counting pass's histogram is never sized to the span.
        let waves = [
            Waveform::from_toggles(false, &[1_000_000_000]),
            Waveform::constant(true),
        ];
        let (text, peak, histogram) = stream_one_window(&waves, 1_000_000_001, &[1, 0]);
        assert_eq!(text, write("top", [("s0", &waves[0]), ("s1", &waves[1])]));
        assert_eq!(peak, 3);
        assert_eq!(histogram, 0);
    }

    /// Seeded differential test of the window ordering on its own: dense
    /// and sparse spans, any arrival order, repeated keys.
    #[test]
    fn window_order_matches_a_full_sort() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut order = WindowOrder::default();
        for case in 0..400 {
            let n = next(300) as usize;
            let (t0, span) = (
                next(1 << 20),
                1 + next(if case % 2 == 0 { 64 } else { 1 << 16 }),
            );
            let mut keys: Vec<u64> = (0..n)
                .map(|_| {
                    let t = (t0 + next(span)) as SimTime;
                    pack_change(t, next(40) as u32, next(2) == 1)
                })
                .collect();
            if case % 3 == 0 {
                // Signal-ascending per stamp, as the drain delivers.
                keys.sort_unstable_by_key(|&k| (k >> 1) as u32);
            }
            let mut expected = keys.clone();
            expected.sort_unstable();
            assert_eq!(order.sort(&mut keys), &expected[..], "case {case}");
        }
    }

    #[test]
    fn id_generation_is_unique() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(seen.insert(id_for(i)), "duplicate id at {i}");
        }
    }
}
