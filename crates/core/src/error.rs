//! Error types for conformance-checked operations.

use crate::array::GridShape;
use std::fmt;

/// Errors raised by SCL's fallible configuration operations.
///
/// Most skeleton entry points assert their preconditions (shape mismatches
/// are programming errors, as with slice indexing); the `try_*` variants
/// return these instead, for callers that build configurations dynamically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SclError {
    /// Two arrays being aligned have different grid shapes.
    ShapeMismatch {
        /// Shape of the left operand.
        left: GridShape,
        /// Shape of the right operand.
        right: GridShape,
    },
    /// Two arrays being aligned live on different processors.
    PlacementMismatch,
    /// A pattern's part count disagrees with an array's part count.
    PartCountMismatch {
        /// Parts the pattern requires.
        expected: usize,
        /// Parts the array has.
        found: usize,
    },
    /// A pattern was used with the wrong dimensionality of data.
    BadPattern(String),
    /// The machine has fewer processors than the configuration needs.
    MachineTooSmall {
        /// Processors the configuration needs.
        needed: usize,
        /// Processors the machine has.
        procs: usize,
    },
    /// An optimized submission's plan is outside the lowerable fragment
    /// (a closure stage, or a symbol the registry does not resolve), so
    /// there is no optimised program to compile.
    NotLowerable,
}

impl fmt::Display for SclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SclError::ShapeMismatch { left, right } => {
                write!(f, "cannot align arrays of shapes {left:?} and {right:?}")
            }
            SclError::PlacementMismatch => {
                write!(f, "cannot align arrays with different processor placements")
            }
            SclError::PartCountMismatch { expected, found } => {
                write!(f, "expected {expected} parts, found {found}")
            }
            SclError::BadPattern(msg) => write!(f, "bad partition pattern: {msg}"),
            SclError::MachineTooSmall { needed, procs } => {
                write!(
                    f,
                    "configuration needs {needed} processors, machine has {procs}"
                )
            }
            SclError::NotLowerable => write!(f, "plan is outside the lowerable fragment"),
        }
    }
}

impl std::error::Error for SclError {}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, SclError>;

/// Why one streamed request failed — failure as a value.
///
/// Poison envelopes in the streaming runtime resolve into this type, so a
/// crashing plan fails only its own tickets: a serving layer can hand each
/// request a typed `Result` instead of unwinding a shared service thread.
/// The `Display` rendering is byte-for-byte the panic message the legacy
/// (panicking) pop path re-raises, so both views of a failure agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// A fused compute stage panicked while processing one part.
    StagePanic {
        /// Label of the panicking stage.
        stage: String,
        /// Index of the part being processed when the panic fired.
        part: usize,
        /// The panic payload, rendered as a string.
        message: String,
    },
    /// A stream barrier stage panicked.
    BarrierPanic {
        /// Label of the panicking barrier.
        stage: String,
        /// The panic payload, rendered as a string.
        message: String,
    },
    /// A stream barrier returned a configuration error.
    BarrierFailed {
        /// Label of the failing barrier.
        stage: String,
        /// The configuration error the barrier raised.
        error: SclError,
    },
    /// The request's deadline passed before it completed; the work was
    /// short-circuited rather than run.
    DeadlineExceeded,
    /// The plan is quarantined after repeated consecutive crashes and the
    /// request was rejected without running.
    Quarantined {
        /// Consecutive crashed batches that triggered the quarantine.
        crashes: u32,
    },
}

impl RequestError {
    /// True for failures caused by the plan itself crashing (stage or
    /// barrier panics, barrier errors) — the failures that count toward
    /// supervision (graph teardown and quarantine). Deadline expiry and
    /// quarantine rejections are not faults: they say nothing about the
    /// plan's health.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            RequestError::StagePanic { .. }
                | RequestError::BarrierPanic { .. }
                | RequestError::BarrierFailed { .. }
        )
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::StagePanic {
                stage,
                part,
                message,
            } => {
                write!(
                    f,
                    "fused stage `{stage}` panicked on part {part}: {message}"
                )
            }
            RequestError::BarrierPanic { stage, message } => {
                write!(f, "stream barrier `{stage}` panicked: {message}")
            }
            RequestError::BarrierFailed { stage, error } => {
                write!(f, "stream barrier `{stage}` failed: {error}")
            }
            RequestError::DeadlineExceeded => write!(f, "deadline exceeded"),
            RequestError::Quarantined { crashes } => {
                write!(f, "plan quarantined after {crashes} consecutive crashes")
            }
        }
    }
}

impl std::error::Error for RequestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SclError::ShapeMismatch {
            left: GridShape::Dim1(2),
            right: GridShape::Dim1(3),
        };
        assert!(e.to_string().contains("align"));
        assert!(SclError::PlacementMismatch
            .to_string()
            .contains("placements"));
        assert!(SclError::PartCountMismatch {
            expected: 2,
            found: 3
        }
        .to_string()
        .contains("expected 2"));
        assert!(SclError::BadPattern("x".into()).to_string().contains("x"));
        assert!(SclError::MachineTooSmall {
            needed: 8,
            procs: 4
        }
        .to_string()
        .contains("8"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SclError::PlacementMismatch);
    }
}
