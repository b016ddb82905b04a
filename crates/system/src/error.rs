//! System-layer error type.

use astra_collectives::CollectiveError;
use astra_des::Time;
use astra_network::{FaultError, NetworkError};
use astra_topology::{NodeId, TopologyError};
use std::error::Error;
use std::fmt;

/// Errors from issuing work into the system layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum SystemError {
    /// Plan synthesis failed.
    Collective(CollectiveError),
    /// The network rejected an injection (indicates a routing bug).
    Network(NetworkError),
    /// Route synthesis against the topology failed.
    Topology(TopologyError),
    /// A fault plan failed validation.
    Fault(FaultError),
    /// A zero-byte collective was requested.
    EmptySet,
    /// A logical→physical overlay was inconsistent.
    InvalidOverlay {
        /// Human-readable description.
        what: String,
    },
    /// Every physical path between two endpoints is blocked by down links
    /// (or absent): the fabric cannot degrade gracefully any further.
    Unreachable {
        /// The send's source.
        from: NodeId,
        /// The send's destination.
        to: NodeId,
    },
    /// A lossy scale-out message exhausted its retransmission budget.
    RetriesExhausted {
        /// The message's source.
        from: NodeId,
        /// The message's destination.
        to: NodeId,
        /// Send attempts made (1 original + retries).
        attempts: u32,
    },
    /// An event referenced a collective the simulator does not know.
    UnknownCollective {
        /// The referenced collective id.
        coll: u64,
    },
    /// A running chunk's phase machine rejected a received step (for
    /// example a step that overtook its predecessor in the network).
    StepRejected {
        /// The NPU whose phase machine rejected the step.
        npu: NodeId,
        /// The collective the chunk belongs to.
        coll: u64,
        /// The chunk within the collective.
        chunk: u32,
        /// The chunk's current phase.
        phase: u8,
        /// Simulated time of the rejection.
        time: Time,
        /// What the phase machine reported.
        source: CollectiveError,
    },
    /// An internal protocol invariant was violated (a system-layer bug,
    /// surfaced as an error instead of a panic so callers can report it).
    Protocol {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Collective(e) => write!(f, "collective planning failed: {e}"),
            SystemError::Network(e) => write!(f, "network rejected message: {e}"),
            SystemError::Topology(e) => write!(f, "route synthesis failed: {e}"),
            SystemError::Fault(e) => write!(f, "invalid fault plan: {e}"),
            SystemError::EmptySet => write!(f, "collective set size must be positive"),
            SystemError::InvalidOverlay { what } => write!(f, "invalid overlay: {what}"),
            SystemError::Unreachable { from, to } => write!(
                f,
                "{from} cannot reach {to}: every physical path is blocked by down links"
            ),
            SystemError::RetriesExhausted { from, to, attempts } => write!(
                f,
                "message {from} -> {to} dropped on every one of {attempts} attempts; \
                 retransmission budget exhausted"
            ),
            SystemError::UnknownCollective { coll } => {
                write!(f, "event references unknown collective coll{coll}")
            }
            SystemError::StepRejected {
                npu,
                coll,
                chunk,
                phase,
                time,
                source,
            } => write!(
                f,
                "NPU {npu} rejected a step of coll{coll} chunk {chunk} phase {phase} \
                 at {time}: {source}"
            ),
            SystemError::Protocol { what } => write!(f, "system protocol violation: {what}"),
        }
    }
}

impl Error for SystemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SystemError::Collective(e) => Some(e),
            SystemError::Network(e) => Some(e),
            SystemError::Topology(e) => Some(e),
            SystemError::Fault(e) => Some(e),
            SystemError::StepRejected { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<CollectiveError> for SystemError {
    fn from(e: CollectiveError) -> Self {
        SystemError::Collective(e)
    }
}

#[doc(hidden)]
impl From<NetworkError> for SystemError {
    fn from(e: NetworkError) -> Self {
        SystemError::Network(e)
    }
}

#[doc(hidden)]
impl From<TopologyError> for SystemError {
    fn from(e: TopologyError) -> Self {
        match e {
            TopologyError::Unreachable { from, to } => SystemError::Unreachable { from, to },
            other => SystemError::Topology(other),
        }
    }
}

#[doc(hidden)]
impl From<FaultError> for SystemError {
    fn from(e: FaultError) -> Self {
        SystemError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        let e = SystemError::from(CollectiveError::NoActiveDims);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("planning"));
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SystemError>();
    }

    #[test]
    fn topology_unreachable_maps_to_system_unreachable() {
        let e = SystemError::from(TopologyError::Unreachable {
            from: NodeId(0),
            to: NodeId(3),
        });
        assert!(matches!(
            e,
            SystemError::Unreachable {
                from: NodeId(0),
                to: NodeId(3)
            }
        ));
        assert!(e.to_string().contains("blocked by down links"));
        // Non-reachability errors stay wrapped.
        let e = SystemError::from(TopologyError::NoSwitches);
        assert!(matches!(e, SystemError::Topology(_)));
    }

    #[test]
    fn retries_exhausted_message_names_the_budget() {
        let e = SystemError::RetriesExhausted {
            from: NodeId(1),
            to: NodeId(2),
            attempts: 5,
        };
        let s = e.to_string();
        assert!(s.contains('5') && s.contains("retransmission budget"), "got: {s}");
    }
}
