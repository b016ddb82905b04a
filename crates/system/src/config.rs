//! System-layer configuration (the System rows of Table III).

use astra_collectives::{Algorithm, IntraAlgo};
use astra_des::Time;
use astra_network::{AnalyticalNet, Backend, GarnetNet, NetworkConfig};
use astra_topology::LogicalTopology;
use serde::{Deserialize, Serialize};

/// Order in which collectives drain from the ready queue
/// (`scheduling-policy`, Table III row 7).
///
/// Each policy is a [`crate::ChunkScheduler`] implementation; the enum is
/// the serializable configuration knob that selects one (and the sweep
/// engine's `scheduling` axis sweeps over it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// Most recently issued collective first. §III-E motivates this: the
    /// first layer's weight gradients are issued *last* during
    /// back-propagation but needed *first* in the next forward pass.
    #[default]
    Lifo,
    /// Issue order.
    Fifo,
    /// Smallest chunk first (shortest-job-first across every queued
    /// collective), ties broken by issue order. Small "urgent" collectives
    /// overtake bulk transfers without reordering chunks inside one
    /// collective.
    Priority,
}

impl std::fmt::Display for SchedulingPolicy {
    /// The CLI / sweep-label spelling; round-trips through
    /// [`SchedulingPolicy::from_str`](std::str::FromStr).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SchedulingPolicy::Lifo => "lifo",
            SchedulingPolicy::Fifo => "fifo",
            SchedulingPolicy::Priority => "priority",
        })
    }
}

impl std::str::FromStr for SchedulingPolicy {
    type Err = String;

    /// Parses the CLI / sweep-spec spelling (`lifo`, `fifo`, `priority`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lifo" => Ok(SchedulingPolicy::Lifo),
            "fifo" => Ok(SchedulingPolicy::Fifo),
            "priority" => Ok(SchedulingPolicy::Priority),
            other => Err(format!(
                "unknown scheduling policy `{other}` (expected lifo, fifo, or priority)"
            )),
        }
    }
}

/// How bursts of messages from one algorithm action enter the network
/// (`injection-policy`, Table III row 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum InjectionPolicy {
    /// Inject every message of the burst immediately; the links sort out
    /// contention.
    #[default]
    Aggressive,
    /// Pace the burst: each subsequent message waits one first-link
    /// serialization time, modeling an endpoint that cannot source
    /// back-to-back messages at full rate.
    Normal,
}

/// Which network backend a [`crate::SystemSim`] is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// Link-level analytical model — fast, used for the paper-scale sweeps.
    #[default]
    Analytical,
    /// Flit-level Garnet-like model — detailed, for small validation runs.
    Garnet,
}

impl BackendKind {
    /// Builds this backend over the fabric `topo`.
    pub(crate) fn build(self, topo: &LogicalTopology, net_cfg: &NetworkConfig) -> Box<dyn Backend> {
        match self {
            BackendKind::Analytical => Box::new(AnalyticalNet::new(topo, net_cfg)),
            BackendKind::Garnet => Box::new(GarnetNet::new(topo, net_cfg)),
        }
    }
}

/// System-layer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Multi-phase collective planner variant (`algorithm`, Table III
    /// row 3).
    pub algorithm: Algorithm,
    /// Ready-queue policy (`scheduling-policy`).
    pub scheduling: SchedulingPolicy,
    /// Chunks each set is split into (`preferred-set-splits`, Table III
    /// row 16). §V-F issues 16 at a time.
    pub set_splits: u32,
    /// Constant endpoint delay charged per received message
    /// (`endpoint-delay`; Table IV: 10 cycles).
    pub endpoint_delay: Time,
    /// Default local-reduction cost per KiB of received data (the workload
    /// layer overrides this per layer via the input file's "local update
    /// time", Fig 8).
    pub local_update_per_kb: Time,
    /// Dispatcher threshold `T`: dispatch when fewer than this many chunks
    /// remain in their first phase (§V-F: 8).
    pub dispatcher_threshold: usize,
    /// Dispatcher batch `P`: how many chunks to issue at once (§V-F: 16).
    pub dispatcher_batch: usize,
    /// Message-burst pacing (`injection-policy`, Table III row 15).
    pub injection: InjectionPolicy,
    /// Per-dimension algorithm policy (ring/direct as in the paper, or
    /// halving-doubling on power-of-two dimensions).
    pub intra_algo: IntraAlgo,
}

impl SystemConfig {
    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on zero set-splits or a zero dispatcher batch.
    pub fn validate(&self) {
        assert!(self.set_splits > 0, "need at least one chunk per set");
        assert!(self.dispatcher_batch > 0, "dispatcher batch must be positive");
    }
}

impl Default for SystemConfig {
    /// Paper defaults: enhanced-capable baseline off (baseline algorithm),
    /// LIFO scheduling, 16 set splits, 10-cycle endpoint delay, T=8, P=16.
    fn default() -> Self {
        SystemConfig {
            algorithm: Algorithm::Baseline,
            scheduling: SchedulingPolicy::Lifo,
            set_splits: 16,
            endpoint_delay: Time::from_cycles(10),
            local_update_per_kb: Time::from_cycles(2),
            dispatcher_threshold: 8,
            dispatcher_batch: 16,
            injection: InjectionPolicy::Aggressive,
            intra_algo: IntraAlgo::Auto,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SystemConfig::default();
        assert_eq!(c.set_splits, 16);
        assert_eq!(c.endpoint_delay, Time::from_cycles(10));
        assert_eq!(c.dispatcher_threshold, 8);
        assert_eq!(c.dispatcher_batch, 16);
        assert_eq!(c.scheduling, SchedulingPolicy::Lifo);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "chunk")]
    fn zero_splits_rejected() {
        SystemConfig {
            set_splits: 0,
            ..SystemConfig::default()
        }
        .validate();
    }
}
