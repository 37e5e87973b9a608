//! The unified error taxonomy for the ANT stack.
//!
//! Every crate in the workspace reports failures through [`AntError`]: a
//! zero-dependency enum that wraps the domain-specific errors
//! ([`ConvError`], [`SparseError`], [`FnirError`]) and adds the structured
//! contexts the higher layers need — which configuration parameter was
//! unusable, which machine rejected which operand, what a quarantined
//! simulation job panicked with, and where a persisted artifact (layer
//! cache, bench ledger) was corrupt.
//!
//! The taxonomy exists so that public constructors and entry points return
//! `Result` instead of panicking: a malformed layer shape or a poisoned
//! channel pair should fail *that* unit of work with attributable context,
//! not abort a multi-network sweep. See `docs/ROBUSTNESS.md` for the
//! quarantine/retry semantics built on top of it.

use std::fmt;

use ant_conv::ConvError;
use ant_sparse::SparseError;

use crate::fnir::FnirError;

/// A failure anywhere in the ANT simulation stack.
///
/// Variants either wrap a lower-level domain error or carry the structured
/// context of the layer that detected the failure. The enum is `Clone` so a
/// failure can live in a per-run report while its summary travels through
/// spans and manifests.
#[derive(Debug, Clone, PartialEq)]
pub enum AntError {
    /// Convolution geometry was impossible (kernel larger than image, zero
    /// stride, mismatched operands, ...).
    Shape(ConvError),
    /// A sparse-matrix invariant was violated (non-monotone row pointers,
    /// out-of-bounds column indices, nnz mismatch, ...).
    Sparse(SparseError),
    /// An FNIR hardware parameter was unusable.
    Fnir(FnirError),
    /// A configuration parameter cannot be used as given.
    InvalidConfig {
        /// The parameter that was rejected (e.g. `"num_pes"`).
        param: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// A machine entry point rejected an operand before simulating.
    InvalidOperand {
        /// The machine that rejected the operand.
        machine: &'static str,
        /// Which operand was rejected (`"kernel"`, `"image"`, `"shape"`).
        operand: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// A unit of work panicked and was caught at an isolation boundary.
    Panic {
        /// Where the panic was caught (e.g. `"pair job layer=3 phase=update
        /// pair=17 machine=ANT"`).
        context: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A persisted artifact (cache line, ledger line) failed to parse
    /// or round-trip.
    Corrupt {
        /// What artifact was corrupt (usually a file path).
        source: String,
        /// One-based line number, when line-oriented.
        line: Option<usize>,
        /// What was wrong with it.
        reason: String,
    },
    /// An I/O operation failed.
    Io {
        /// What the operation was trying to do.
        context: String,
        /// The underlying error, rendered.
        reason: String,
    },
}

impl AntError {
    /// An [`AntError::InvalidConfig`] with a formatted reason.
    pub fn invalid_config(param: &'static str, reason: impl Into<String>) -> AntError {
        AntError::InvalidConfig {
            param,
            reason: reason.into(),
        }
    }

    /// An [`AntError::InvalidOperand`] with a formatted reason.
    pub fn invalid_operand(
        machine: &'static str,
        operand: &'static str,
        reason: impl Into<String>,
    ) -> AntError {
        AntError::InvalidOperand {
            machine,
            operand,
            reason: reason.into(),
        }
    }

    /// An [`AntError::Io`] from a `std::io::Error`.
    pub fn io(context: impl Into<String>, error: &std::io::Error) -> AntError {
        AntError::Io {
            context: context.into(),
            reason: error.to_string(),
        }
    }

    /// An [`AntError::Corrupt`] for a whole artifact (no line number).
    pub fn corrupt(source: impl Into<String>, reason: impl Into<String>) -> AntError {
        AntError::Corrupt {
            source: source.into(),
            line: None,
            reason: reason.into(),
        }
    }

    /// An [`AntError::Panic`] from a caught unwind payload. String payloads
    /// (the overwhelmingly common case: `panic!("...")`, failed asserts)
    /// are preserved verbatim; anything else is summarized.
    pub fn from_panic(context: impl Into<String>, payload: &dyn std::any::Any) -> AntError {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        AntError::Panic {
            context: context.into(),
            message,
        }
    }

    /// Short stable tag for metrics and failure reports (one word per
    /// variant).
    pub fn kind(&self) -> &'static str {
        match self {
            AntError::Shape(_) => "shape",
            AntError::Sparse(_) => "sparse",
            AntError::Fnir(_) => "fnir",
            AntError::InvalidConfig { .. } => "config",
            AntError::InvalidOperand { .. } => "operand",
            AntError::Panic { .. } => "panic",
            AntError::Corrupt { .. } => "corrupt",
            AntError::Io { .. } => "io",
        }
    }
}

impl fmt::Display for AntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AntError::Shape(e) => write!(f, "shape error: {e}"),
            AntError::Sparse(e) => write!(f, "sparse-matrix error: {e}"),
            AntError::Fnir(e) => write!(f, "fnir error: {e}"),
            AntError::InvalidConfig { param, reason } => {
                write!(f, "invalid config: {param}: {reason}")
            }
            AntError::InvalidOperand {
                machine,
                operand,
                reason,
            } => write!(f, "{machine}: invalid {operand}: {reason}"),
            AntError::Panic { context, message } => {
                write!(f, "panic in {context}: {message}")
            }
            AntError::Corrupt {
                source,
                line,
                reason,
            } => match line {
                Some(line) => write!(f, "corrupt {source}:{line}: {reason}"),
                None => write!(f, "corrupt {source}: {reason}"),
            },
            AntError::Io { context, reason } => write!(f, "io error: {context}: {reason}"),
        }
    }
}

impl std::error::Error for AntError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AntError::Shape(e) => Some(e),
            AntError::Sparse(e) => Some(e),
            AntError::Fnir(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConvError> for AntError {
    fn from(e: ConvError) -> AntError {
        AntError::Shape(e)
    }
}

impl From<SparseError> for AntError {
    fn from(e: SparseError) -> AntError {
        AntError::Sparse(e)
    }
}

impl From<FnirError> for AntError {
    fn from(e: FnirError) -> AntError {
        AntError::Fnir(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_send_sync_static() {
        fn assert_bounds<T: Send + Sync + Clone + 'static>() {}
        assert_bounds::<AntError>();
    }

    #[test]
    fn wraps_domain_errors_with_source() {
        use std::error::Error as _;
        let e: AntError = ConvError::ZeroStride.into();
        assert!(matches!(e, AntError::Shape(_)));
        assert!(e.source().is_some());
        assert_eq!(e.kind(), "shape");
        let e: AntError = SparseError::InvalidDimensions { rows: 0, cols: 4 }.into();
        assert!(matches!(e, AntError::Sparse(_)));
        assert_eq!(e.kind(), "sparse");
        let e: AntError = FnirError::ZeroParameter.into();
        assert!(e.to_string().contains("fnir"));
    }

    #[test]
    fn display_carries_structured_context() {
        let e = AntError::invalid_config("num_pes", "must be at least 1 (got 0)");
        assert_eq!(
            e.to_string(),
            "invalid config: num_pes: must be at least 1 (got 0)"
        );
        let e = AntError::invalid_operand("ANT", "kernel", "3x3 but shape wants 5x5");
        assert!(e.to_string().contains("ANT"));
        assert!(e.to_string().contains("kernel"));
        assert_eq!(e.kind(), "operand");
    }

    #[test]
    fn panic_payloads_are_preserved() {
        let caught =
            std::panic::catch_unwind(|| panic!("chaos: injected")).expect_err("must panic");
        let e = AntError::from_panic("pair job layer=0", caught.as_ref());
        match &e {
            AntError::Panic { context, message } => {
                assert_eq!(context, "pair job layer=0");
                assert!(message.contains("chaos: injected"));
            }
            other => panic!("wrong variant {other:?}"),
        }
        let caught =
            std::panic::catch_unwind(|| std::panic::panic_any(42u32)).expect_err("must panic");
        let e = AntError::from_panic("ctx", caught.as_ref());
        assert!(e.to_string().contains("non-string"));
    }

    #[test]
    fn corrupt_locates_the_line() {
        let e = AntError::Corrupt {
            source: "fig09.checkpoint.jsonl".to_string(),
            line: Some(7),
            reason: "bad JSON".to_string(),
        };
        assert_eq!(e.to_string(), "corrupt fig09.checkpoint.jsonl:7: bad JSON");
        assert_eq!(AntError::corrupt("x", "y").to_string(), "corrupt x: y");
    }

    #[test]
    fn io_helper_renders_the_cause() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = AntError::io("open checkpoint", &io);
        assert!(e.to_string().contains("open checkpoint"));
        assert!(e.to_string().contains("gone"));
        assert_eq!(e.kind(), "io");
    }
}
