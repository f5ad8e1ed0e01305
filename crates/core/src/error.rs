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
    /// Waveform extraction was requested but the run was segmented (earlier
    /// segments' device memory has been reused).
    Segmented {
        /// Number of sequential segments the run used.
        segments: usize,
    },
    /// Waveform extraction was requested from a device-backed result after
    /// a later run recycled the device arena. Enable
    /// `RunOptions::spill_waveforms` for results that must outlive later
    /// runs, or extract before re-running.
    StaleExtraction,
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
    /// A device fault (injected or real) survived the configured
    /// `RetryPolicy`: a launch failed, an allocation or transfer errored,
    /// or a worker thread servicing the device panicked. The fault was
    /// isolated at the segment boundary — the `Session` stays usable.
    DeviceFault {
        /// Index of the faulted device in its fleet (0 for single-device
        /// runs).
        device: usize,
        /// What failed on the device.
        kind: gatspi_gpu::FaultKind,
        /// `true` if the fault was transient (the run failed only because
        /// retry attempts were exhausted); `false` if the device is
        /// permanently gone.
        retryable: bool,
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
            CoreError::Segmented { segments } => write!(
                f,
                "waveforms unavailable: run was split into {segments} memory segments"
            ),
            CoreError::StaleExtraction => write!(
                f,
                "waveforms unavailable: a later run recycled the device arena \
                 (use RunOptions::spill_waveforms for durable results)"
            ),
            CoreError::NoSuchSignal { index } => write!(f, "no signal with index {index}"),
            CoreError::BadConfig { detail } => write!(f, "bad configuration: {detail}"),
            CoreError::Io { detail } => write!(f, "streaming sink I/O failed: {detail}"),
            CoreError::BadIncremental { detail } => {
                write!(f, "incremental run precondition failed: {detail}")
            }
            CoreError::DeviceFault {
                device,
                kind,
                retryable,
            } => write!(
                f,
                "device {device} {kind} fault ({})",
                if *retryable {
                    "transient; retries exhausted"
                } else {
                    "permanent"
                }
            ),
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
