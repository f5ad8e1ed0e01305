use crate::{NetlistError, Result};

/// Maximum number of input pins a single cell may have.
///
/// The truth-table array grows as `2^n`, and the conditional-delay lookup
/// tables of the simulator grow as `4 * 2^(n-1)`, so this bound keeps both
/// comfortably small. Industry combinational cells rarely exceed 6 inputs.
pub const MAX_CELL_INPUTS: usize = 16;

/// Coarse functional classification of a cell, used by workload generators
/// and reporting. The simulator itself only consumes [`TruthTable`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CellKind {
    /// Single-input buffer or inverter.
    Simple,
    /// AND/OR/NAND/NOR family.
    Basic,
    /// XOR/XNOR family (high switching activity).
    Parity,
    /// Multiplexers.
    Mux,
    /// AOI/OAI/AO/OA compound gates.
    Complex,
    /// Constant drivers (tie cells).
    Tie,
}

/// A logic function stored as the 1-D array of the paper's Fig. 4.
///
/// Pin `i` (0-based) has *weight* `2^i`. The output for a given input vector
/// is `values[sum of weights of pins at logic 1]`. This uniform lookup
/// formulation is what lets the GPU kernel evaluate *any* cell type with a
/// single indexed load, rather than branching per cell function.
///
/// # Example
///
/// ```
/// use gatspi_netlist::TruthTable;
///
/// // NAND2: Y = !(A & B); pin A has weight 1, pin B has weight 2.
/// let t = TruthTable::from_fn(2, |bits| !(bits[0] && bits[1]));
/// assert_eq!(t.eval_index(0), 1); // A=0 B=0
/// assert_eq!(t.eval_index(3), 0); // A=1 B=1
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    inputs: usize,
    /// `2^inputs` output values, each 0 or 1.
    values: Vec<u8>,
}

impl TruthTable {
    /// Builds a truth table from an explicit row-value array.
    ///
    /// `values[idx]` is the output when the set of input pins at logic 1 has
    /// weight-sum `idx` (pin `i` weighs `2^i`).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadTruthTable`] if `values.len() != 2^inputs`,
    /// if any value is not 0/1, or if `inputs` exceeds `MAX_CELL_INPUTS`.
    pub fn new(inputs: usize, values: Vec<u8>) -> Result<Self> {
        if inputs > MAX_CELL_INPUTS {
            return Err(NetlistError::BadTruthTable {
                detail: format!("{inputs} inputs exceeds MAX_CELL_INPUTS ({MAX_CELL_INPUTS})"),
            });
        }
        if values.len() != 1usize << inputs {
            return Err(NetlistError::BadTruthTable {
                detail: format!(
                    "expected {} rows for {} inputs, got {}",
                    1usize << inputs,
                    inputs,
                    values.len()
                ),
            });
        }
        if let Some(v) = values.iter().find(|&&v| v > 1) {
            return Err(NetlistError::BadTruthTable {
                detail: format!("row value {v} is not a logic level (0/1)"),
            });
        }
        Ok(TruthTable { inputs, values })
    }

    /// Builds a truth table by evaluating `f` on every input combination.
    ///
    /// `f` receives a slice of booleans, one per input pin in pin order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > MAX_CELL_INPUTS`; use [`TruthTable::new`] for a
    /// fallible path.
    pub fn from_fn(inputs: usize, mut f: impl FnMut(&[bool]) -> bool) -> Self {
        assert!(
            inputs <= MAX_CELL_INPUTS,
            "{inputs} inputs exceeds MAX_CELL_INPUTS"
        );
        let rows = 1usize << inputs;
        let mut values = Vec::with_capacity(rows);
        let mut bits = vec![false; inputs];
        for idx in 0..rows {
            for (i, b) in bits.iter_mut().enumerate() {
                *b = (idx >> i) & 1 == 1;
            }
            values.push(u8::from(f(&bits)));
        }
        TruthTable { inputs, values }
    }

    /// Number of input pins.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// The raw Fig.-4 row array (`2^inputs` entries of 0/1).
    pub fn values(&self) -> &[u8] {
        &self.values
    }

    /// Evaluates the function at a precomputed weight-sum index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^inputs`.
    #[inline]
    pub fn eval_index(&self, index: u32) -> u8 {
        self.values[index as usize]
    }

    /// Evaluates the function on a slice of pin values (0/1), pin order.
    ///
    /// # Panics
    ///
    /// Panics if `pins.len() != self.inputs()`.
    pub fn eval(&self, pins: &[u8]) -> u8 {
        assert_eq!(pins.len(), self.inputs, "pin count mismatch");
        let mut idx = 0u32;
        for (i, &v) in pins.iter().enumerate() {
            if v != 0 {
                idx += 1 << i;
            }
        }
        self.eval_index(idx)
    }

    /// Returns `true` if toggling input `pin` changes the output for at least
    /// one assignment of the other pins (i.e. the pin is functionally
    /// observable).
    pub fn pin_observable(&self, pin: usize) -> bool {
        assert!(pin < self.inputs, "pin {pin} out of range");
        let w = 1usize << pin;
        (0..self.values.len())
            .filter(|idx| idx & w == 0)
            .any(|idx| self.values[idx] != self.values[idx | w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_matches_manual_nand2() {
        let t = TruthTable::from_fn(2, |b| !(b[0] && b[1]));
        assert_eq!(t.values(), &[1, 1, 1, 0]);
        assert_eq!(t.inputs(), 2);
    }

    #[test]
    fn paper_fig4_nand_example() {
        // Fig. 4 shows Y=[1,1,1,0] for a NAND with A weight 2 and B weight 1.
        // Our convention gives pin 0 weight 1; with pins ordered (B, A) the
        // row array matches the figure exactly.
        let t = TruthTable::from_fn(2, |b| !(b[1] && b[0]));
        assert_eq!(t.values(), &[1, 1, 1, 0]);
        // A=1 (pin 1, weight 2) + B=1 (pin 0, weight 1) => index 3 => 0.
        assert_eq!(t.eval_index(3), 0);
    }

    #[test]
    fn new_validates_row_count() {
        assert!(TruthTable::new(2, vec![0, 1]).is_err());
        assert!(TruthTable::new(1, vec![0, 1]).is_ok());
    }

    #[test]
    fn new_validates_logic_levels() {
        assert!(TruthTable::new(1, vec![0, 2]).is_err());
    }

    #[test]
    fn new_rejects_too_many_inputs() {
        let n = MAX_CELL_INPUTS + 1;
        assert!(TruthTable::new(n, vec![0; 1 << n]).is_err());
    }

    #[test]
    fn eval_by_pins() {
        let t = TruthTable::from_fn(3, |b| (b[0] ^ b[1]) ^ b[2]);
        assert_eq!(t.eval(&[1, 1, 0]), 0);
        assert_eq!(t.eval(&[1, 0, 0]), 1);
        assert_eq!(t.eval(&[1, 1, 1]), 1);
    }

    #[test]
    fn observability() {
        // MUX2: S ? B : A, pins (A, B, S).
        let mux = TruthTable::from_fn(3, |b| if b[2] { b[1] } else { b[0] });
        assert!(mux.pin_observable(0));
        assert!(mux.pin_observable(1));
        assert!(mux.pin_observable(2));
        // Constant function: nothing observable.
        let tie = TruthTable::from_fn(1, |_| true);
        assert!(!tie.pin_observable(0));
    }
}
