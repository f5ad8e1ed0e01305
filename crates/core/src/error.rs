use std::fmt;

/// Errors produced by the GATSPI engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Stimulus waveform count does not match the graph's primary inputs.
    StimulusMismatch {
        /// Primary inputs the graph declares.
        expected: usize,
        /// Waveforms supplied.
        got: usize,
    },
    /// The device waveform arena cannot hold the simulation even at one
    /// window per segment. Grow `SimConfig::memory_words`.
    OutOfMemory {
        /// Words requested at the point of failure.
        requested: usize,
        /// Arena capacity in words.
        capacity: usize,
    },
    /// Waveforms were read from a result whose run kept none: a run's
    /// waveforms live only in its host spill. Enable
    /// `RunOptions::spill_waveforms` on runs whose waveforms are read.
    WaveformsNotKept,
    /// A requested signal does not exist.
    NoSuchSignal {
        /// The offending index.
        index: usize,
    },
    /// Invalid configuration.
    BadConfig {
        /// Human-readable detail.
        detail: String,
    },
    /// A streaming output sink failed to write (the wrapped
    /// `std::io::Error`, stringified — `CoreError` stays `Clone`).
    Io {
        /// Human-readable detail from the underlying I/O error.
        detail: String,
    },
    /// An incremental run's inputs don't satisfy its preconditions: the
    /// previous result must carry a host waveform spill
    /// (`RunOptions::spill_waveforms`), come from a topology-identical
    /// graph, and the changed-gate indices must be in range.
    BadIncremental {
        /// Human-readable detail.
        detail: String,
    },
    /// Code running for a device panicked: a kernel worker, the drain, or
    /// a user `WaveformSink`. The panic was caught at the batch or drain
    /// boundary and the run stopped; the `Session` stays usable.
    DeviceFault {
        /// Index of the device in its fleet (0 for single-device runs).
        device: usize,
        /// The panic message (or a placeholder for a non-string payload).
        detail: String,
    },
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io {
            detail: e.to_string(),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::StimulusMismatch { expected, got } => {
                write!(f, "expected {expected} stimulus waveforms, got {got}")
            }
            CoreError::OutOfMemory {
                requested,
                capacity,
            } => write!(
                f,
                "device arena exhausted: needed {requested} words of {capacity}"
            ),
            CoreError::WaveformsNotKept => write!(
                f,
                "waveforms unavailable: the run kept none \
                 (enable RunOptions::spill_waveforms)"
            ),
            CoreError::NoSuchSignal { index } => write!(f, "no signal with index {index}"),
            CoreError::BadConfig { detail } => write!(f, "bad configuration: {detail}"),
            CoreError::Io { detail } => write!(f, "streaming sink I/O failed: {detail}"),
            CoreError::BadIncremental { detail } => {
                write!(f, "incremental run precondition failed: {detail}")
            }
            CoreError::DeviceFault { device, detail } => {
                write!(f, "device {device} fault: {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = CoreError::OutOfMemory {
            requested: 100,
            capacity: 10,
        };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
