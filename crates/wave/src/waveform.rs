use crate::{Result, SimTime, WaveError, EOW, INIT_ONE_MARKER};

/// A 2-value digital waveform in the array format of the paper's Fig. 3.
///
/// Layout of the backing `i32` array:
///
/// ```text
/// [ -1?, t0, t1, t2, ..., tn, EOW ]
/// ```
///
/// * Each `tk` is a timestamp at which the signal toggles; timestamps are
///   strictly increasing and non-negative.
/// * The logic value *after* the toggle stored at array index `k` is
///   `k % 2` (even index ⇒ 0, odd index ⇒ 1).
/// * The first real entry always has timestamp 0 and establishes the initial
///   value; when the initial value is 1 a leading [`INIT_ONE_MARKER`] (`-1`)
///   pads the array so the time-0 entry lands on an odd index.
/// * [`EOW`] (`i32::MAX`) terminates the array.
///
/// # Example
///
/// ```
/// use gatspi_wave::Waveform;
///
/// // Starts at 1, falls at t=5, rises again at t=9.
/// let w = Waveform::from_toggles(true, &[5, 9]);
/// assert_eq!(w.raw(), &[-1, 0, 5, 9, i32::MAX]);
/// assert!(w.initial_value());
/// assert!(!w.value_at(5));
/// assert!(w.value_at(9));
/// assert_eq!(w.toggle_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Waveform {
    data: Vec<SimTime>,
}

impl Waveform {
    /// A waveform that holds `value` forever.
    pub fn constant(value: bool) -> Self {
        let data = if value {
            vec![INIT_ONE_MARKER, 0, EOW]
        } else {
            vec![0, EOW]
        };
        Waveform { data }
    }

    /// Builds a waveform from an initial value and strictly-increasing
    /// positive toggle times.
    ///
    /// # Panics
    ///
    /// Panics if toggle times are not strictly increasing, not positive, or
    /// reach [`EOW`]. Use [`WaveformBuilder`] for a fallible interface.
    pub fn from_toggles(initial: bool, toggles: &[SimTime]) -> Self {
        let mut b = WaveformBuilder::new(initial);
        b.data.reserve_exact(toggles.len() + 1);
        for &t in toggles {
            b.toggle(t).expect("toggle times must be increasing");
        }
        b.finish()
    }

    /// Wraps a raw Fig.-3 array, validating the encoding.
    ///
    /// # Errors
    ///
    /// Returns [`WaveError::BadEncoding`] if the array lacks the EOW
    /// terminator, has a misplaced `-1`, does not start at time 0, or is not
    /// strictly increasing.
    pub fn from_raw(data: Vec<SimTime>) -> Result<Self> {
        if data.last() != Some(&EOW) {
            return Err(WaveError::BadEncoding {
                detail: "missing EOW terminator".into(),
            });
        }
        let body = &data[..data.len() - 1];
        let start = if body.first() == Some(&INIT_ONE_MARKER) {
            1
        } else {
            0
        };
        if body.len() > start && body[start] != 0 {
            return Err(WaveError::BadEncoding {
                detail: format!("first toggle must be at time 0, got {}", body[start]),
            });
        }
        if body.is_empty() {
            return Err(WaveError::BadEncoding {
                detail: "waveform must contain an initial value entry".into(),
            });
        }
        let mut prev: i64 = -1;
        for (i, &t) in body.iter().enumerate().skip(start) {
            if t == EOW {
                return Err(WaveError::BadEncoding {
                    detail: format!("interior EOW at index {i}"),
                });
            }
            if i64::from(t) <= prev {
                return Err(WaveError::BadEncoding {
                    detail: format!("non-increasing timestamp {t} at index {i}"),
                });
            }
            prev = i64::from(t);
        }
        Ok(Waveform { data })
    }

    /// The raw Fig.-3 array, including any leading `-1` and the trailing EOW.
    pub fn raw(&self) -> &[SimTime] {
        &self.data
    }

    /// Value at time 0 before any post-zero toggles.
    pub fn initial_value(&self) -> bool {
        self.data[0] == INIT_ONE_MARKER
    }

    /// Number of toggles after time 0 (the initial-value entry at t=0 is not
    /// a toggle). This is the SAIF `TC` of the signal.
    pub fn toggle_count(&self) -> usize {
        // words = marker? + 1 (initial) + toggles + EOW
        let marker = usize::from(self.initial_value());
        self.data.len() - marker - 2
    }

    /// Number of toggles strictly inside `[0, end)` — the SAIF `TC` of a
    /// truncated observation window (the t=0 initial-value entry is not a
    /// toggle, and neither is a toggle at exactly `end`, which influences
    /// nothing inside the window).
    pub fn toggle_count_clipped(&self, end: SimTime) -> usize {
        let start = usize::from(self.initial_value());
        let body = &self.data[start..self.data.len() - 1];
        // `body` is [0, t1, t2, ...], strictly increasing: the partition
        // point counts entries below `end`, minus the initial-value entry.
        body.partition_point(|&t| t < end).saturating_sub(1)
    }

    /// The time of the final toggle (0 if the signal never toggles).
    pub fn last_time(&self) -> SimTime {
        let idx = self.data.len() - 2;
        self.data[idx].max(0)
    }

    /// The signal value at time `t` (toggles at exactly `t` are included).
    ///
    /// # Panics
    ///
    /// Panics if `t < 0`.
    pub fn value_at(&self, t: SimTime) -> bool {
        assert!(t >= 0, "time must be non-negative");
        // Find last toggle with time <= t; its array-index parity is the value.
        let body_end = self.data.len() - 1;
        let start = usize::from(self.initial_value());
        let body = &self.data[start..body_end];
        match body.binary_search(&t) {
            Ok(i) => (start + i) % 2 == 1,
            Err(0) => unreachable!("first entry is at time 0"),
            Err(i) => (start + i - 1) % 2 == 1,
        }
    }

    /// Iterates `(time, value_after)` pairs, starting with `(0, initial)`.
    pub fn iter(&self) -> WaveformIter<'_> {
        WaveformIter {
            data: &self.data,
            idx: usize::from(self.initial_value()),
        }
    }

    /// Time integrals `(time_at_0, time_at_1)` over `[0, end)`, for SAIF
    /// `T0`/`T1` durations.
    ///
    /// # Panics
    ///
    /// Panics if `end < 0`.
    pub fn durations(&self, end: SimTime) -> (i64, i64) {
        assert!(end >= 0, "end must be non-negative");
        let mut t0 = 0i64;
        let mut t1 = 0i64;
        let mut prev_time = 0i64;
        let mut prev_val = self.initial_value();
        for (t, v) in self.iter().skip(1) {
            let t = i64::from(t).min(i64::from(end));
            let span = t - prev_time;
            if prev_val {
                t1 += span;
            } else {
                t0 += span;
            }
            if t >= i64::from(end) {
                prev_time = t;
                prev_val = v;
                break;
            }
            prev_time = t;
            prev_val = v;
        }
        let tail = i64::from(end) - prev_time;
        if tail > 0 {
            if prev_val {
                t1 += tail;
            } else {
                t0 += tail;
            }
        }
        (t0, t1)
    }

    /// Extracts the window `[start, end)` as a new waveform re-based to time
    /// 0: the initial value is `value_at(start)` and toggles strictly inside
    /// the window are kept (shifted by `-start`).
    ///
    /// This is the primitive behind GATSPI's cycle-parallel input
    /// restructuring: a long stimulus is cut into independent windows that
    /// simulate concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `start < 0` or `end < start`.
    pub fn window(&self, start: SimTime, end: SimTime) -> Waveform {
        assert!(start >= 0 && end >= start, "invalid window");
        let mut b = WaveformBuilder::new(self.value_at(start));
        for (t, _) in self.iter().skip(1) {
            if t > start && t < end {
                b.toggle(t - start).expect("source was monotonic");
            }
            if t >= end {
                break;
            }
        }
        b.finish()
    }

    /// Returns this waveform shifted later in time by `offset`, keeping the
    /// initial value over `[0, offset)`.
    ///
    /// # Panics
    ///
    /// Panics if `offset < 0` or any shifted time would reach [`EOW`].
    pub fn shifted(&self, offset: SimTime) -> Waveform {
        assert!(offset >= 0, "offset must be non-negative");
        let mut b = WaveformBuilder::new(self.initial_value());
        for (t, _) in self.iter().skip(1) {
            let t2 = i64::from(t) + i64::from(offset);
            assert!(t2 < i64::from(EOW), "shifted time overflows");
            b.toggle(t2 as SimTime).expect("source was monotonic");
        }
        b.finish()
    }

    /// Concatenates `other` after this waveform, placing `other`'s time 0 at
    /// `at`. If `other` starts at a different value than this waveform holds
    /// at `at`, a toggle is inserted at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last toggle of `self`.
    pub fn concat(&self, other: &Waveform, at: SimTime) -> Waveform {
        assert!(at >= self.last_time(), "concat point before last toggle");
        let mut b = WaveformBuilder::new(self.initial_value());
        for (t, _) in self.iter().skip(1) {
            b.toggle(t).expect("source was monotonic");
        }
        if other.initial_value() != b.current_value() {
            b.toggle(at.max(1)).expect("monotonic by assertion");
        }
        for (t, _) in other.iter().skip(1) {
            let t2 = i64::from(t) + i64::from(at);
            assert!(t2 < i64::from(EOW), "concat time overflows");
            b.toggle(t2 as SimTime).expect("source was monotonic");
        }
        b.finish()
    }
}

/// Splits a raw Fig. 3 array into `(initial value, toggle tail)`:
/// consumes the optional leading [`INIT_ONE_MARKER`] and the mandatory
/// time-0 entry. The returned tail holds the toggle times up to the
/// [`EOW`] terminator (raw *device* slices may carry stale words past it
/// — iterate with an explicit `t != EOW` guard). This is the one shared
/// decoder of the device-word prologue; keep format changes here.
pub fn split_raw(raw: &[i32]) -> (bool, &[i32]) {
    let marker = raw.first() == Some(&INIT_ONE_MARKER);
    let idx = usize::from(marker);
    debug_assert_eq!(raw.get(idx), Some(&0), "raw waveform must start at t=0");
    (marker, &raw[idx + 1..])
}

/// Iterator over `(time, value_after)` pairs of a [`Waveform`].
#[derive(Debug, Clone)]
pub struct WaveformIter<'a> {
    data: &'a [SimTime],
    idx: usize,
}

impl Iterator for WaveformIter<'_> {
    type Item = (SimTime, bool);

    fn next(&mut self) -> Option<Self::Item> {
        let t = self.data[self.idx];
        if t == EOW {
            return None;
        }
        let v = self.idx % 2 == 1;
        self.idx += 1;
        Some((t, v))
    }
}

/// Incremental [`Waveform`] constructor with monotonicity checking.
///
/// # Example
///
/// ```
/// use gatspi_wave::WaveformBuilder;
///
/// # fn main() -> Result<(), gatspi_wave::WaveError> {
/// let mut b = WaveformBuilder::new(false);
/// b.toggle(10)?;
/// b.set_value(20, true)?; // already 1: ignored
/// b.set_value(30, false)?;
/// let w = b.finish();
/// assert_eq!(w.toggle_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WaveformBuilder {
    data: Vec<SimTime>,
    last: SimTime,
}

impl WaveformBuilder {
    /// Starts a waveform with the given value at time 0.
    pub fn new(initial: bool) -> Self {
        let data = if initial {
            vec![INIT_ONE_MARKER, 0]
        } else {
            vec![0]
        };
        WaveformBuilder { data, last: 0 }
    }

    /// The value the waveform holds after all toggles added so far.
    pub fn current_value(&self) -> bool {
        (self.data.len() - 1) % 2 == 1
    }

    /// The time of the most recent toggle.
    pub fn last_time(&self) -> SimTime {
        self.last
    }

    /// Number of toggles recorded so far (excluding the initial value).
    pub fn toggle_count(&self) -> usize {
        let marker = usize::from(self.data[0] == INIT_ONE_MARKER);
        self.data.len() - marker - 1
    }

    /// Appends a toggle at `t`.
    ///
    /// # Errors
    ///
    /// Returns [`WaveError::NonMonotonic`] unless `t` is after the previous
    /// toggle, positive, and below [`EOW`].
    pub fn toggle(&mut self, t: SimTime) -> Result<()> {
        if t <= self.last || t == EOW {
            return Err(WaveError::NonMonotonic {
                index: self.data.len(),
                time: t,
            });
        }
        self.data.push(t);
        self.last = t;
        Ok(())
    }

    /// Drives the signal to `value` at `t`; a no-op if it already holds
    /// `value`.
    ///
    /// # Errors
    ///
    /// As [`WaveformBuilder::toggle`].
    pub fn set_value(&mut self, t: SimTime, value: bool) -> Result<()> {
        if value != self.current_value() {
            self.toggle(t)?;
        }
        Ok(())
    }

    /// Finalises the waveform, appending the EOW terminator.
    pub fn finish(mut self) -> Waveform {
        self.data.push(EOW);
        Waveform { data: self.data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_example_a_shape() {
        // A = [-1, 0, 34, 59, 123, ..., EOW]: starts at 1.
        let w = Waveform::from_toggles(true, &[34, 59, 123]);
        assert_eq!(w.raw(), &[-1, 0, 34, 59, 123, EOW]);
        assert!(w.initial_value());
        assert!(w.value_at(0));
        assert!(!w.value_at(34));
        assert!(w.value_at(59));
        assert!(!w.value_at(200));
    }

    #[test]
    fn fig3_example_b_shape() {
        // B = [0, 4, 78, ..., EOW]: starts at 0.
        let w = Waveform::from_toggles(false, &[4, 78]);
        assert_eq!(w.raw(), &[0, 4, 78, EOW]);
        assert!(!w.initial_value());
        assert!(w.value_at(4));
        assert!(!w.value_at(78));
    }

    #[test]
    fn constant_waveforms() {
        let hi = Waveform::constant(true);
        assert!(hi.initial_value());
        assert_eq!(hi.toggle_count(), 0);
        assert!(hi.value_at(1000));
        let lo = Waveform::constant(false);
        assert_eq!(lo.toggle_count(), 0);
        assert!(!lo.value_at(1000));
    }

    #[test]
    fn value_at_exact_toggle_times() {
        let w = Waveform::from_toggles(false, &[10, 20]);
        assert!(!w.value_at(9));
        assert!(w.value_at(10));
        assert!(w.value_at(19));
        assert!(!w.value_at(20));
    }

    #[test]
    fn from_raw_validation() {
        assert!(Waveform::from_raw(vec![0, 5, EOW]).is_ok());
        assert!(Waveform::from_raw(vec![-1, 0, 5, EOW]).is_ok());
        // Missing EOW.
        assert!(Waveform::from_raw(vec![0, 5]).is_err());
        // Doesn't start at 0.
        assert!(Waveform::from_raw(vec![3, 5, EOW]).is_err());
        // Non-increasing.
        assert!(Waveform::from_raw(vec![0, 5, 5, EOW]).is_err());
        // Interior EOW.
        assert!(Waveform::from_raw(vec![0, EOW, EOW]).is_err());
        // Empty body.
        assert!(Waveform::from_raw(vec![EOW]).is_err());
    }

    #[test]
    fn toggle_count_clipped_bounds() {
        let w = Waveform::from_toggles(true, &[10, 20, 30]);
        assert_eq!(w.toggle_count_clipped(0), 0);
        assert_eq!(w.toggle_count_clipped(10), 0, "toggle at end excluded");
        assert_eq!(w.toggle_count_clipped(11), 1);
        assert_eq!(w.toggle_count_clipped(30), 2);
        assert_eq!(w.toggle_count_clipped(100), 3);
        assert_eq!(Waveform::constant(false).toggle_count_clipped(50), 0);
    }

    #[test]
    fn toggle_count_excludes_initial() {
        assert_eq!(Waveform::from_toggles(true, &[1, 2, 3]).toggle_count(), 3);
        assert_eq!(Waveform::from_toggles(false, &[1]).toggle_count(), 1);
        assert_eq!(Waveform::constant(true).toggle_count(), 0);
    }

    #[test]
    fn iter_yields_initial_then_toggles() {
        let w = Waveform::from_toggles(true, &[5, 9]);
        let pts: Vec<_> = w.iter().collect();
        assert_eq!(pts, vec![(0, true), (5, false), (9, true)]);
    }

    #[test]
    fn durations_split_time() {
        let w = Waveform::from_toggles(false, &[10, 30]);
        // 0..10 at 0, 10..30 at 1, 30..100 at 0.
        let (t0, t1) = w.durations(100);
        assert_eq!((t0, t1), (80, 20));
        // Truncated before second toggle.
        let (t0, t1) = w.durations(20);
        assert_eq!((t0, t1), (10, 10));
        // Zero-length window.
        assert_eq!(w.durations(0), (0, 0));
    }

    #[test]
    fn window_rebasing() {
        let w = Waveform::from_toggles(false, &[10, 30, 50]);
        // Window [20, 60): starts at value 1 (toggled at 10), keeps 30, 50.
        let seg = w.window(20, 60);
        assert!(seg.initial_value());
        assert_eq!(seg.raw(), &[-1, 0, 10, 30, EOW]);
        // Window boundary exactly on a toggle: toggle at start is absorbed
        // into the initial value.
        let seg = w.window(10, 40);
        assert!(seg.initial_value());
        assert_eq!(seg.raw(), &[-1, 0, 20, EOW]);
    }

    #[test]
    fn windows_cover_original() {
        let w = Waveform::from_toggles(true, &[3, 7, 11, 15, 19]);
        for start in [0, 4, 10] {
            let seg = w.window(start, start + 5);
            for t in 0..5 {
                assert_eq!(
                    seg.value_at(t),
                    w.value_at(start + t),
                    "window({start}) at t={t}"
                );
            }
        }
    }

    #[test]
    fn shifted_preserves_shape() {
        let w = Waveform::from_toggles(true, &[5]);
        let s = w.shifted(100);
        assert_eq!(s.raw(), &[-1, 0, 105, EOW]);
    }

    #[test]
    fn concat_inserts_joining_toggle() {
        let a = Waveform::from_toggles(false, &[5]); // ends at 1
        let b = Waveform::from_toggles(false, &[3]); // starts at 0
        let c = a.concat(&b, 10);
        // a holds 1 at t=10, b starts at 0 -> toggle inserted at 10.
        assert_eq!(c.raw(), &[0, 5, 10, 13, EOW]);
    }

    #[test]
    fn concat_without_joining_toggle() {
        let a = Waveform::from_toggles(false, &[5]); // ends at 1
        let b = Waveform::from_toggles(true, &[3]); // starts at 1
        let c = a.concat(&b, 10);
        assert_eq!(c.raw(), &[0, 5, 13, EOW]);
    }

    #[test]
    fn builder_rejects_non_monotonic() {
        let mut b = WaveformBuilder::new(false);
        b.toggle(5).unwrap();
        assert!(b.toggle(5).is_err());
        assert!(b.toggle(4).is_err());
        assert!(b.toggle(EOW).is_err());
        assert!(b.toggle(0).is_err());
    }

    #[test]
    fn builder_set_value() {
        let mut b = WaveformBuilder::new(true);
        b.set_value(5, true).unwrap(); // no-op
        b.set_value(6, false).unwrap();
        assert_eq!(b.toggle_count(), 1);
        assert!(!b.current_value());
    }

    #[test]
    fn last_time() {
        assert_eq!(Waveform::from_toggles(false, &[4, 9]).last_time(), 9);
        assert_eq!(Waveform::constant(true).last_time(), 0);
    }
}
