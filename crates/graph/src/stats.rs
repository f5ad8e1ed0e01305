//! Level-structure statistics.
//!
//! GATSPI launches one kernel (pair) per logic level, so the number of
//! levels fixes the stream-synchronize + launch overhead (Table 5), while
//! level *widths* determine how much design parallelism each launch exposes.

/// Summary of a levelized design's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// Gates per level.
    pub widths: Vec<u32>,
}

impl LevelStats {
    /// Builds stats from a CSR offset array (`n_levels + 1` entries).
    pub fn from_offsets(offsets: &[u32]) -> Self {
        let widths = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        LevelStats { widths }
    }

    /// Number of levels.
    pub fn n_levels(&self) -> usize {
        self.widths.len()
    }

    /// Widest level (0 for empty designs).
    pub fn max_width(&self) -> u32 {
        self.widths.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_offsets() {
        let s = LevelStats::from_offsets(&[0, 2, 5, 6]);
        assert_eq!(s.widths, vec![2, 3, 1]);
        assert_eq!(s.n_levels(), 3);
        assert_eq!(s.max_width(), 3);
    }

    #[test]
    fn empty() {
        let s = LevelStats::from_offsets(&[0]);
        assert_eq!(s.n_levels(), 0);
        assert_eq!(s.max_width(), 0);
    }
}
