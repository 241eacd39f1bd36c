use std::error::Error;
use std::fmt;

use smore_data::DataError;
use smore_hdc::HdcError;
use smore_tensor::TensorError;

use crate::wire::WireError;

/// Error type for the SMORE model and evaluation pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SmoreError {
    /// A configuration value is invalid.
    InvalidConfig {
        /// Human-readable description of the invalid configuration.
        what: String,
    },
    /// The model was asked to predict before [`crate::Smore::fit`] ran.
    NotFitted,
    /// Training data covered fewer than two domains — SMORE requires
    /// `K > 1` source domains (paper §3.2).
    TooFewDomains {
        /// Number of distinct domains found in the training data.
        found: usize,
    },
    /// A training domain had no samples.
    EmptyDomain {
        /// The offending domain tag.
        domain: usize,
    },
    /// A filesystem operation on a model artifact failed.
    Io {
        /// Path of the artifact being read or written.
        path: String,
        /// The underlying I/O error, rendered (kept as a string so the
        /// error stays `Clone + PartialEq`).
        message: String,
    },
    /// A model artifact failed structural validation: bad magic, an
    /// unsupported format version, a checksum mismatch, a truncated or
    /// unknown section, or a payload that decodes to an invalid model.
    CorruptArtifact {
        /// The section (or header field) that failed validation.
        section: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The host refused an operating-system resource the serving stack
    /// needs (a worker thread, a socket) — distinct from [`Io`](Self::Io)
    /// because no artifact path is involved and the caller's recovery is
    /// capacity planning, not file repair.
    Resource {
        /// What could not be obtained, with the OS error rendered in.
        what: String,
    },
    /// Underlying HDC failure.
    Hdc(HdcError),
    /// Underlying dataset failure.
    Data(DataError),
    /// Underlying tensor failure.
    Tensor(TensorError),
}

impl fmt::Display for SmoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmoreError::InvalidConfig { what } => write!(f, "invalid SMORE configuration: {what}"),
            SmoreError::NotFitted => write!(f, "model is not fitted; call fit() first"),
            SmoreError::TooFewDomains { found } => {
                write!(f, "SMORE requires at least 2 source domains, found {found}")
            }
            SmoreError::EmptyDomain { domain } => {
                write!(f, "training domain {domain} has no samples")
            }
            SmoreError::Io { path, message } => {
                write!(f, "artifact i/o failed for {path}: {message}")
            }
            SmoreError::CorruptArtifact { section, reason } => {
                write!(f, "corrupt .smore artifact (section {section}): {reason}")
            }
            SmoreError::Resource { what } => {
                write!(f, "os resource unavailable: {what}")
            }
            SmoreError::Hdc(e) => write!(f, "hdc error: {e}"),
            SmoreError::Data(e) => write!(f, "data error: {e}"),
            SmoreError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl Error for SmoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SmoreError::Hdc(e) => Some(e),
            SmoreError::Data(e) => Some(e),
            SmoreError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl SmoreError {
    /// Wraps a [`std::io::Error`] hit while reading or writing the artifact
    /// at `path`. (A `From` impl is impossible: `std::io::Error` is neither
    /// `Clone` nor `PartialEq`, so the source is captured as rendered
    /// text.)
    pub fn io(path: impl Into<String>, error: &std::io::Error) -> Self {
        SmoreError::Io { path: path.into(), message: error.to_string() }
    }

    /// Builds a [`SmoreError::CorruptArtifact`] for `section`.
    pub fn corrupt(section: impl Into<String>, reason: impl Into<String>) -> Self {
        SmoreError::CorruptArtifact { section: section.into(), reason: reason.into() }
    }

    /// Wraps an OS refusal (thread spawn, socket) as
    /// [`SmoreError::Resource`].
    pub fn resource(what: impl Into<String>, error: &std::io::Error) -> Self {
        SmoreError::Resource { what: format!("{}: {error}", what.into()) }
    }
}

impl From<HdcError> for SmoreError {
    fn from(e: HdcError) -> Self {
        SmoreError::Hdc(e)
    }
}

impl From<DataError> for SmoreError {
    fn from(e: DataError) -> Self {
        SmoreError::Data(e)
    }
}

impl From<TensorError> for SmoreError {
    fn from(e: TensorError) -> Self {
        SmoreError::Tensor(e)
    }
}

/// A malformed artifact payload: the reader's context names the section.
impl From<WireError> for SmoreError {
    fn from(e: WireError) -> Self {
        SmoreError::CorruptArtifact { section: e.context.to_string(), reason: e.reason }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        assert!(SmoreError::NotFitted.to_string().contains("not fitted"));
        assert!(SmoreError::TooFewDomains { found: 1 }.to_string().contains('1'));
        assert!(SmoreError::EmptyDomain { domain: 3 }.to_string().contains('3'));
        let e: SmoreError = HdcError::EmptyInput { what: "x" }.into();
        assert!(Error::source(&e).is_some());
        let e: SmoreError = DataError::InvalidConfig { what: "y".into() }.into();
        assert!(Error::source(&e).is_some());
        let e: SmoreError = TensorError::InvalidDimension { what: "z" }.into();
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn artifact_variants_render_their_context() {
        let io = SmoreError::io(
            "/tmp/m.smore",
            &std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(io.to_string().contains("/tmp/m.smore"));
        assert!(io.to_string().contains("gone"));
        assert!(Error::source(&io).is_none(), "rendered source, no chained error");
        let corrupt = SmoreError::corrupt("gram", "crc mismatch");
        assert!(corrupt.to_string().contains("gram"));
        assert!(corrupt.to_string().contains("crc mismatch"));
        assert_eq!(corrupt.clone(), corrupt);
        let wire: SmoreError = WireError { context: "gram", reason: "crc mismatch".into() }.into();
        assert_eq!(wire, corrupt, "a wire failure names its section");
        let res = SmoreError::resource(
            "spawning worker thread 3",
            &std::io::Error::new(std::io::ErrorKind::WouldBlock, "EAGAIN"),
        );
        assert!(res.to_string().contains("worker thread 3"));
        assert!(res.to_string().contains("EAGAIN"));
        assert!(Error::source(&res).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SmoreError>();
    }
}
