//! Error types for RSN construction and operation.

use std::fmt;

use crate::network::NodeId;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while building or operating on an RSN.
///
/// # Example
///
/// ```
/// use rsn_core::{Error, RsnBuilder};
///
/// // A network without a connected scan-out port cannot be finished.
/// let builder = RsnBuilder::new("broken");
/// match builder.finish() {
///     Err(Error::ScanOutUnconnected) => {}
///     other => panic!("expected ScanOutUnconnected, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The primary scan-out port has no driver.
    ScanOutUnconnected,
    /// A node other than the primary scan-in port has no scan-input driver.
    NodeUnconnected(NodeId),
    /// The structural dataflow contains a cycle through the given node.
    ///
    /// IEEE Std 1687 only permits cycles that can never be sensitized; this
    /// model requires structurally acyclic dataflow.
    StructuralCycle(NodeId),
    /// A multiplexer was declared with fewer than two data inputs.
    MuxTooFewInputs(NodeId),
    /// A multiplexer address evaluated to an input index that does not exist.
    MuxAddressOutOfRange {
        /// The multiplexer whose address was out of range.
        mux: NodeId,
        /// The decoded address value.
        address: usize,
        /// Number of data inputs of the multiplexer.
        inputs: usize,
    },
    /// A control expression referenced a shadow-register bit that does not
    /// exist (no shadow register, or bit index past the register length).
    InvalidRegisterRef {
        /// The referenced node.
        node: NodeId,
        /// The referenced bit index.
        bit: u32,
    },
    /// A control expression referenced a primary input that does not exist.
    InvalidInputRef(u32),
    /// The traced scan path does not match the set of selected segments, so
    /// the configuration is not valid (it does not describe exactly one
    /// active scan path).
    InvalidConfiguration {
        /// A segment that is selected but not on the traced path, or on the
        /// traced path but not selected.
        witness: NodeId,
    },
    /// A scan path trace exceeded the node count, indicating a cycle that is
    /// sensitized by the given configuration.
    SensitizedCycle,
    /// Access planning failed to find a CSU sequence for the target segment.
    AccessPlanFailed {
        /// The unreachable target segment.
        target: NodeId,
        /// Human-readable reason.
        reason: String,
    },
    /// The named node was expected to be a different kind (e.g. a segment
    /// was required but a multiplexer was found).
    WrongNodeKind {
        /// The offending node.
        node: NodeId,
        /// What the operation expected.
        expected: &'static str,
    },
    /// A duplicate node name was registered in the builder.
    DuplicateName(String),
    /// The shadow registers hold more than `u32::MAX` bits, the widest
    /// configuration a network can address.
    TooManyShadowBits,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ScanOutUnconnected => write!(f, "primary scan-out port has no driver"),
            Error::NodeUnconnected(n) => write!(f, "node {n} has no scan-input driver"),
            Error::StructuralCycle(n) => {
                write!(f, "structural dataflow cycle through node {n}")
            }
            Error::MuxTooFewInputs(n) => {
                write!(f, "multiplexer {n} has fewer than two data inputs")
            }
            Error::MuxAddressOutOfRange {
                mux,
                address,
                inputs,
            } => write!(
                f,
                "multiplexer {mux} address {address} out of range for {inputs} inputs"
            ),
            Error::InvalidRegisterRef { node, bit } => {
                write!(
                    f,
                    "invalid shadow-register reference: node {node} bit {bit}"
                )
            }
            Error::InvalidInputRef(i) => write!(f, "invalid primary input reference {i}"),
            Error::InvalidConfiguration { witness } => write!(
                f,
                "configuration is not valid: select/path mismatch at node {witness}"
            ),
            Error::SensitizedCycle => write!(f, "configuration sensitizes a structural cycle"),
            Error::AccessPlanFailed { target, reason } => {
                write!(f, "no access plan for segment {target}: {reason}")
            }
            Error::WrongNodeKind { node, expected } => {
                write!(f, "node {node} is not a {expected}")
            }
            Error::DuplicateName(name) => write!(f, "duplicate node name {name:?}"),
            Error::TooManyShadowBits => {
                write!(f, "shadow registers exceed {} bits", u32::MAX)
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let errors = [
            Error::ScanOutUnconnected,
            Error::NodeUnconnected(NodeId(3)),
            Error::StructuralCycle(NodeId(1)),
            Error::MuxTooFewInputs(NodeId(0)),
            Error::MuxAddressOutOfRange {
                mux: NodeId(2),
                address: 5,
                inputs: 2,
            },
            Error::InvalidRegisterRef {
                node: NodeId(2),
                bit: 9,
            },
            Error::InvalidInputRef(7),
            Error::InvalidConfiguration { witness: NodeId(4) },
            Error::SensitizedCycle,
            Error::AccessPlanFailed {
                target: NodeId(8),
                reason: "x".into(),
            },
            Error::WrongNodeKind {
                node: NodeId(9),
                expected: "segment",
            },
            Error::DuplicateName("A".into()),
            Error::TooManyShadowBits,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
