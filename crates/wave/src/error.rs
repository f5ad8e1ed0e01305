use std::fmt;

/// Errors produced by waveform construction and activity-file IO.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WaveError {
    /// A raw array did not follow the Fig. 3 encoding.
    BadEncoding {
        /// Human-readable detail.
        detail: String,
    },
    /// Toggle times were not strictly increasing.
    NonMonotonic {
        /// Index of the offending toggle.
        index: usize,
        /// The offending timestamp.
        time: i32,
    },
    /// A SAIF or VCD document failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for WaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaveError::BadEncoding { detail } => write!(f, "bad waveform encoding: {detail}"),
            WaveError::NonMonotonic { index, time } => {
                write!(
                    f,
                    "toggle {index} at time {time} is not after its predecessor"
                )
            }
            WaveError::Parse { line, detail } => {
                write!(f, "parse error on line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for WaveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_detail() {
        let e = WaveError::NonMonotonic { index: 10, time: 4 };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WaveError>();
    }
}
