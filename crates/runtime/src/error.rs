//! Error type of the runtime layer.

use std::error::Error;
use std::fmt;

use crosslight_core::error::ArchitectureError;

/// Errors produced by the evaluation service and sweep planner.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The underlying simulator rejected a request (invalid configuration or
    /// model failure).
    Evaluation(ArchitectureError),
    /// A sweep scenario could not be expanded into requests.
    Scenario(String),
    /// The evaluation panicked; the panic was contained and its message is
    /// carried here.
    Panicked(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Evaluation(err) => write!(f, "evaluation failed: {err}"),
            Self::Scenario(reason) => write!(f, "invalid sweep scenario: {reason}"),
            Self::Panicked(message) => write!(f, "evaluation panicked: {message}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Evaluation(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ArchitectureError> for RuntimeError {
    fn from(err: ArchitectureError) -> Self {
        Self::Evaluation(err)
    }
}

/// Convenience result alias for runtime operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_are_wired() {
        let inner = ArchitectureError::MappingFailed { reason: "x".into() };
        let err = RuntimeError::from(inner);
        assert!(err.to_string().contains("evaluation failed"));
        assert!(err.source().is_some());
        let scenario = RuntimeError::Scenario("empty".into());
        assert!(scenario.source().is_none());
        assert!(scenario.to_string().contains("empty"));
        assert!(RuntimeError::Panicked("boom".into())
            .to_string()
            .contains("panicked: boom"));
    }
}
