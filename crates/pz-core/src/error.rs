//! Error types for the Palimpzest core.

use pz_llm::LlmError;
use thiserror::Error;

/// Crate-wide error type.
#[derive(Clone, Debug, Error, PartialEq)]
pub enum PzError {
    #[error("schema error: {0}")]
    Schema(String),
    #[error("invalid plan: {0}")]
    Plan(String),
    #[error("unknown dataset: {0}")]
    UnknownDataset(String),
    #[error("unknown UDF: {0}")]
    UnknownUdf(String),
    /// A serving job named a tenant the host never provisioned.
    #[error("unknown tenant: {0}")]
    UnknownTenant(String),
    #[error("execution error: {0}")]
    Execution(String),
    #[error("optimizer error: {0}")]
    Optimizer(String),
    /// The serving layer refused to admit this run: the host is at
    /// capacity (or the run's deadline cannot be met from the back of the
    /// queue). Structured so callers can distinguish load shedding from a
    /// pipeline failure and retry after `retry_after_secs` of backoff.
    #[error("overloaded: {reason} (retry after {retry_after_secs:.1}s)")]
    Overloaded {
        reason: String,
        retry_after_secs: f64,
    },
    #[error(transparent)]
    Llm(#[from] LlmError),
}

impl PzError {
    /// True when this error is the serving layer shedding load rather than
    /// the pipeline itself failing — the canonical "try again later" signal.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, PzError::Overloaded { .. })
    }
}

/// Crate-wide result alias.
pub type PzResult<T> = Result<T, PzError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llm_error_converts() {
        let e: PzError = LlmError::Rejected("nope".into()).into();
        assert!(matches!(e, PzError::Llm(_)));
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn overloaded_is_structured_and_detectable() {
        let e = PzError::Overloaded {
            reason: "queue full (8 waiting)".into(),
            retry_after_secs: 2.5,
        };
        assert!(e.is_overloaded());
        assert_eq!(
            e.to_string(),
            "overloaded: queue full (8 waiting) (retry after 2.5s)"
        );
        assert!(!PzError::Plan("x".into()).is_overloaded());
    }

    #[test]
    fn display_messages() {
        assert_eq!(
            PzError::Plan("no scan".into()).to_string(),
            "invalid plan: no scan"
        );
        assert_eq!(
            PzError::UnknownDataset("d".into()).to_string(),
            "unknown dataset: d"
        );
    }
}
