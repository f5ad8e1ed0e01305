//! Translation of SDF IOPATH statements into the uniform 2-D delay lookup
//! tables of the paper's Fig. 4 ("SDF to LUT Array Translator").
//!
//! For every (gate, input pin) pair the simulator holds a `[4 × 2^(n-1)]`
//! array (`n` = number of gate inputs):
//!
//! * **row** = `2 * input_edge + output_edge`, with `posedge = 0`,
//!   `negedge = 1`, output `rise = 0`, `fall = 1`;
//! * **column** = Σ of the *reduced weights* of the non-switching pins at
//!   logic 1, where the pin at position `j` has reduced weight `2^j` if
//!   `j <` the switching pin's position, else `2^(j-1)` (i.e. the switching
//!   pin's bit is squeezed out of the full truth-table index);
//! * unspecified arcs hold [`NO_ARC`] — the `∞` entries in Fig. 4.
//!
//! Unconditional IOPATHs fill every column; `COND`-guarded IOPATHs then
//! overwrite exactly the columns their condition selects, which reproduces
//! the Fig. 4 example (default 8/6 everywhere, conditional 7/5 in the
//! matching column).

use std::borrow::Borrow;

use crate::model::{EdgeSpec, IoPath, TripleSelect};
use crate::{Result, SdfError};

/// Sentinel for "no arc specified for this transition" (`∞` in Fig. 4).
pub const NO_ARC: i32 = i32::MAX;

/// Converts an SDF delay value to integer ticks (`value * scale`, rounded) —
/// the one range check every delay entering a simulation graph goes through.
///
/// # Errors
///
/// [`SdfError::BadDelay`] if the scaled value is negative, NaN, or does not
/// fit below [`NO_ARC`].
pub fn delay_to_ticks(value: f64, scale: f64) -> Result<i32> {
    let t = (value * scale).round();
    if !(0.0..(NO_ARC as f64)).contains(&t) {
        return Err(SdfError::BadDelay { value: t });
    }
    Ok(t as i32)
}

/// Removes the switching pin's bit from a full truth-table index, yielding
/// the delay-LUT column index over the remaining pins.
///
/// # Example
///
/// ```
/// use gatspi_sdf::reduced_column_index;
///
/// // 3-pin gate, full index 0b110 (pins 1 and 2 high), switching pin 2:
/// // remaining pins are {0, 1} with pin 1 high -> column 0b10 = 2.
/// assert_eq!(reduced_column_index(0b110, 2), 2);
/// // Switching pin 1: remaining pins {0, 2}, pin 2 high -> column 0b10 = 2.
/// assert_eq!(reduced_column_index(0b110, 1), 2);
/// ```
#[inline]
pub fn reduced_column_index(full_index: u32, pin: usize) -> u32 {
    let low_mask = (1u32 << pin) - 1;
    ((full_index >> (pin + 1)) << pin) | (full_index & low_mask)
}

/// The Fig. 4 conditional-delay lookup table for one (gate, input pin) arc
/// set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayLut {
    n_inputs: usize,
    pin: usize,
    /// `4 * 2^(n-1)` entries, row-major.
    data: Vec<i32>,
}

impl DelayLut {
    /// Number of columns (`2^(n-1)`, minimum 1).
    pub fn ncols(&self) -> usize {
        self.data.len() / 4
    }

    /// The pin (position) this LUT describes arcs for.
    pub fn pin(&self) -> usize {
        self.pin
    }

    /// Raw row-major data, `4 * ncols` entries.
    pub fn data(&self) -> &[i32] {
        &self.data
    }

    /// Looks up the arc delay for a transition.
    ///
    /// * `input_rising`: the switching pin's new value is 1 (posedge).
    /// * `output_rising`: the gate output's new value is 1 (rise).
    /// * `col`: reduced column index of the non-switching pins (see
    ///   [`reduced_column_index`]).
    ///
    /// Returns [`NO_ARC`] when the transition has no specified arc.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.ncols()`.
    #[inline]
    pub fn lookup(&self, input_rising: bool, output_rising: bool, col: u32) -> i32 {
        let row = 2 * usize::from(!input_rising) + usize::from(!output_rising);
        self.data[row * self.ncols() + col as usize]
    }
}

/// Builds the [`DelayLut`] for one (gate, input pin) pair from the IOPATHs
/// that target that pin.
///
/// * `pin_names` — all input pin names of the cell, in pin order.
/// * `pin` — position of the switching pin the LUT is for.
/// * `iopaths` — IOPATH statements (owned or borrowed) whose `input` equals
///   `pin_names[pin]` (others are ignored, so passing a cell's full list is
///   fine); later entries override earlier ones.
/// * `select` — which `min:typ:max` corner to use.
/// * `scale` — multiplier converting SDF units to integer ticks (e.g. the
///   file's `timescale_ps` when simulating in picoseconds).
///
/// # Errors
///
/// * [`SdfError::UnknownPin`] if a condition references a pin not in
///   `pin_names`.
/// * [`SdfError::CondOnSwitchingPin`] if a condition references the
///   switching pin itself (the Fig. 4 column encoding has no slot for it).
/// * [`SdfError::BadDelay`] if a scaled delay is negative or overflows.
/// * [`SdfError::BadLut`] if `pin` is out of range.
pub fn build_delay_lut<P: Borrow<IoPath>>(
    pin_names: &[String],
    pin: usize,
    iopaths: &[P],
    select: TripleSelect,
    scale: f64,
) -> Result<DelayLut> {
    let n = pin_names.len();
    if pin >= n {
        return Err(SdfError::BadLut {
            detail: format!("pin {pin} out of range for {n} inputs"),
        });
    }
    let ncols = 1usize << (n - 1);
    let mut data = vec![NO_ARC; 4 * ncols];

    // Stable two-phase application: unconditional defaults first, then
    // conditional refinements (file order within each phase).
    let relevant = |p: &&IoPath| p.input == pin_names[pin];
    let phases: [Vec<&IoPath>; 2] = [
        iopaths
            .iter()
            .map(Borrow::borrow)
            .filter(relevant)
            .filter(|p| p.cond.is_none())
            .collect(),
        iopaths
            .iter()
            .map(Borrow::borrow)
            .filter(relevant)
            .filter(|p| p.cond.is_some())
            .collect(),
    ];

    for phase in &phases {
        for path in phase {
            let rows: &[usize] = match path.edge {
                EdgeSpec::Posedge => &[0, 1],
                EdgeSpec::Negedge => &[2, 3],
                EdgeSpec::Both => &[0, 1, 2, 3],
            };
            // Determine matching columns.
            let mut cols: Vec<u32> = Vec::new();
            match &path.cond {
                None => cols.extend(0..ncols as u32),
                Some(cond) => {
                    // Map condition pins to reduced weights.
                    let mut masks = Vec::with_capacity(cond.terms.len());
                    for (term_pin, val) in &cond.terms {
                        let j = pin_names
                            .iter()
                            .position(|p| p == term_pin)
                            .ok_or_else(|| SdfError::UnknownPin {
                                pin: term_pin.clone(),
                                context: format!("COND on pin `{}`", pin_names[pin]),
                            })?;
                        if j == pin {
                            return Err(SdfError::CondOnSwitchingPin {
                                pin: term_pin.clone(),
                            });
                        }
                        let reduced = if j < pin { j } else { j - 1 };
                        masks.push((1u32 << reduced, *val));
                    }
                    'col: for c in 0..ncols as u32 {
                        for &(mask, val) in &masks {
                            if ((c & mask) != 0) != val {
                                continue 'col;
                            }
                        }
                        cols.push(c);
                    }
                }
            }
            for &row in rows {
                let out_rise = row % 2 == 0;
                let triple = if out_rise { &path.rise } else { &path.fall };
                let Some(v) = triple.select(select) else {
                    continue; // `()` — leave NO_ARC / earlier value.
                };
                let ticks = delay_to_ticks(v, scale)?;
                for &c in &cols {
                    data[row * ncols + c as usize] = ticks;
                }
            }
        }
    }

    Ok(DelayLut {
        n_inputs: n,
        pin,
        data,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SdfFile;

    fn pins(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// The paper's Fig. 4 AOI21 example, end to end from SDF text.
    #[test]
    fn fig4_aoi21_lut() {
        let src = r#"
(DELAYFILE
  (CELL
    (CELLTYPE "AOI21")
    (INSTANCE u1)
    (DELAY
      (ABSOLUTE
        (IOPATH (posedge B) Y () (6))
        (IOPATH (negedge B) Y (8) ())
        (COND A2===1'b1&&A1===1'b0 (IOPATH (posedge B) Y () (5)))
        (COND A2===1'b1&&A1===1'b0 (IOPATH (negedge B) Y (7) ()))
      )
    )
  )
)
"#;
        let f = SdfFile::parse(src).unwrap();
        // Cell pin order (A1, A2, B): B is pin 2.
        let names = pins(&["A1", "A2", "B"]);
        let lut = build_delay_lut(&names, 2, &f.cells[0].iopaths, TripleSelect::Typ, 1.0).unwrap();
        assert_eq!(lut.ncols(), 4);

        // Condition A1=0, A2=1: reduced weights A1->1, A2->2 => column 2.
        let cond_col = 2u32;

        for col in 0..4 {
            // posedge B -> Y rise: never specified.
            assert_eq!(lut.lookup(true, true, col), NO_ARC);
            // negedge B -> Y fall: never specified.
            assert_eq!(lut.lookup(false, false, col), NO_ARC);
            // posedge B -> Y fall: 6 default, 5 under the condition.
            let expect_fall = if col == cond_col { 5 } else { 6 };
            assert_eq!(lut.lookup(true, false, col), expect_fall, "col {col}");
            // negedge B -> Y rise: 8 default, 7 under the condition.
            let expect_rise = if col == cond_col { 7 } else { 8 };
            assert_eq!(lut.lookup(false, true, col), expect_rise, "col {col}");
        }
    }

    #[test]
    fn reduced_index_squeezes_bit() {
        assert_eq!(reduced_column_index(0b000, 0), 0);
        assert_eq!(reduced_column_index(0b001, 0), 0); // own bit removed
        assert_eq!(reduced_column_index(0b110, 0), 0b11);
        assert_eq!(reduced_column_index(0b101, 1), 0b11);
        assert_eq!(reduced_column_index(0b011, 2), 0b11);
        assert_eq!(reduced_column_index(0b100, 2), 0);
    }

    #[test]
    fn single_input_cell() {
        let src = r#"(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (3) (4))))))"#;
        let f = SdfFile::parse(src).unwrap();
        let lut = build_delay_lut(
            &pins(&["A"]),
            0,
            &f.cells[0].iopaths,
            TripleSelect::Typ,
            1.0,
        )
        .unwrap();
        assert_eq!(lut.ncols(), 1);
        // Both edges: rise 3, fall 4.
        assert_eq!(lut.lookup(true, true, 0), 3);
        assert_eq!(lut.lookup(false, true, 0), 3);
        assert_eq!(lut.lookup(true, false, 0), 4);
        assert_eq!(lut.lookup(false, false, 0), 4);
    }

    #[test]
    fn scaling_to_ticks() {
        let src = r#"(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (0.25) (0.5))))))"#;
        let f = SdfFile::parse(src).unwrap();
        let lut = build_delay_lut(
            &pins(&["A"]),
            0,
            &f.cells[0].iopaths,
            TripleSelect::Typ,
            1000.0,
        )
        .unwrap();
        assert_eq!(lut.lookup(true, true, 0), 250);
        assert_eq!(lut.lookup(true, false, 0), 500);
    }

    #[test]
    fn negative_delay_rejected() {
        let src = r#"(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (-1) (1))))))"#;
        let f = SdfFile::parse(src).unwrap();
        let err = build_delay_lut(
            &pins(&["A"]),
            0,
            &f.cells[0].iopaths,
            TripleSelect::Typ,
            1.0,
        );
        assert!(matches!(err, Err(SdfError::BadDelay { .. })));
    }

    #[test]
    fn cond_on_unknown_pin_rejected() {
        let src = r#"(DELAYFILE (CELL (CELLTYPE "X") (INSTANCE u)
  (DELAY (ABSOLUTE (COND Q===1'b1 (IOPATH A Y (1) (1)))))))"#;
        let f = SdfFile::parse(src).unwrap();
        let err = build_delay_lut(
            &pins(&["A", "B"]),
            0,
            &f.cells[0].iopaths,
            TripleSelect::Typ,
            1.0,
        );
        assert!(matches!(err, Err(SdfError::UnknownPin { .. })));
    }

    #[test]
    fn cond_on_switching_pin_rejected() {
        let src = r#"(DELAYFILE (CELL (CELLTYPE "X") (INSTANCE u)
  (DELAY (ABSOLUTE (COND A===1'b1 (IOPATH A Y (1) (1)))))))"#;
        let f = SdfFile::parse(src).unwrap();
        let err = build_delay_lut(
            &pins(&["A", "B"]),
            0,
            &f.cells[0].iopaths,
            TripleSelect::Typ,
            1.0,
        );
        assert!(matches!(err, Err(SdfError::CondOnSwitchingPin { .. })));
    }

    #[test]
    fn pin_out_of_range_rejected() {
        let err = build_delay_lut::<IoPath>(&pins(&["A"]), 3, &[], TripleSelect::Typ, 1.0);
        assert!(matches!(err, Err(SdfError::BadLut { .. })));
    }

    #[test]
    fn irrelevant_iopaths_ignored() {
        let src = r#"(DELAYFILE (CELL (CELLTYPE "NAND2") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (1) (2)) (IOPATH B Y (3) (4))))))"#;
        let f = SdfFile::parse(src).unwrap();
        let names = pins(&["A", "B"]);
        let lut_a =
            build_delay_lut(&names, 0, &f.cells[0].iopaths, TripleSelect::Typ, 1.0).unwrap();
        let lut_b =
            build_delay_lut(&names, 1, &f.cells[0].iopaths, TripleSelect::Typ, 1.0).unwrap();
        assert_eq!(lut_a.lookup(true, true, 0), 1);
        assert_eq!(lut_b.lookup(true, true, 0), 3);
    }

    #[test]
    fn empty_iopaths_all_no_arc() {
        let lut =
            build_delay_lut::<IoPath>(&pins(&["A", "B"]), 0, &[], TripleSelect::Typ, 1.0).unwrap();
        assert_eq!(lut.data().len(), 8);
        assert!(lut.data().iter().all(|&d| d == NO_ARC));
    }
}
