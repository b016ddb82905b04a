//! Per-NPU, per-chunk, per-phase runtime state machines.
//!
//! The system layer owns timing (endpoint delays, reduction cost, message
//! injection); a [`PhaseMachine`] owns the *algorithm*: what to send when
//! the phase starts, how to react to each received message, and when the
//! phase completes on this NPU.
//!
//! Message sizes follow §II-B:
//!
//! * ring reduce-scatter / all-reduce / all-to-all exchange `input/n`-sized
//!   messages (the chunk is partitioned into one message per participant);
//! * ring all-gather relays whole `input`-sized shards;
//! * direct (alltoall-dimension) algorithms blast `n−1` messages in one
//!   step: `input/n` each for RS/AR/A2A, `input` each for the AG broadcast.

use crate::{CollectiveError, PhaseAlgo, PhaseOp, PhaseSpec};
use serde::{Deserialize, Serialize};

/// Where a [`SendCmd`] is aimed, relative to this NPU's position on the
/// phase's ring/group. The system layer resolves targets to node ids and
/// routes (distance-`i` ring sends become `i`-hop software routes; group
/// offsets go through the phase's assigned global switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Target {
    /// The downstream ring neighbor.
    RingNext,
    /// The ring member `distance` hops downstream (ring all-to-all).
    RingDistance(usize),
    /// The group member `offset` positions ahead (direct algorithms).
    GroupOffset(usize),
    /// The group member whose position is `my position XOR mask`
    /// (halving-doubling exchanges).
    GroupXor(usize),
}

/// One message the phase wants injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SendCmd {
    /// Destination, relative to this NPU.
    pub target: Target,
    /// Payload bytes.
    pub bytes: u64,
    /// Algorithm step the message belongs to (receivers hand it back to
    /// [`PhaseMachine::on_receive`]).
    pub step: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    RingRs,
    RingAg,
    RingAr,
    RingA2a,
    DirectRs,
    DirectAg,
    DirectAr,
    DirectA2a,
    HdRs,
    HdAg,
    HdAr,
}

/// Runtime state machine for one phase of one chunk on one NPU.
///
/// The machine never allocates: [`PhaseMachine::start`] and
/// [`PhaseMachine::on_receive`] append the sends they want into a buffer
/// the caller owns (and reuses across events).
///
/// # Example
///
/// ```
/// use astra_collectives::{PhaseMachine, PhaseOp, Target};
///
/// // Ring all-reduce over 4 nodes, 4 KiB entering the phase.
/// let mut m = PhaseMachine::ring(PhaseOp::AllReduce, 4, 4096);
/// let mut sends = Vec::new();
/// m.start(&mut sends);
/// assert_eq!(sends.len(), 1);
/// assert_eq!(sends[0].target, Target::RingNext);
/// assert_eq!(sends[0].bytes, 1024); // input / n
/// assert_eq!(m.expected_receives(), 6); // 2(n-1) steps
///
/// // The neighbor's step-0 message arrives: forward step 1, not done yet.
/// sends.clear();
/// assert!(!m.on_receive(0, &mut sends)?);
/// assert_eq!(sends[0].step, 1);
/// # Ok::<(), astra_collectives::CollectiveError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseMachine {
    kind: Kind,
    n: usize,
    input_bytes: u64,
    recvs: u32,
    started: bool,
    completed: bool,
}

impl PhaseMachine {
    /// Builds the machine for `spec` given the chunk's set size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes == 0` (validated upstream by the system
    /// layer) or the phase size is < 2.
    pub fn new(spec: &PhaseSpec, chunk_bytes: u64) -> Self {
        assert!(chunk_bytes > 0, "chunk must be non-empty");
        let input = spec.input_scale.apply(chunk_bytes).max(1);
        match spec.algo {
            PhaseAlgo::Ring => Self::ring(spec.op, spec.size, input),
            PhaseAlgo::Direct => Self::direct(spec.op, spec.size, input),
            PhaseAlgo::HalvingDoubling => Self::halving_doubling(spec.op, spec.size, input),
        }
    }

    /// Builds a ring-algorithm machine directly (mostly for tests).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `input_bytes == 0`.
    pub fn ring(op: PhaseOp, n: usize, input_bytes: u64) -> Self {
        assert!(n >= 2, "ring needs at least 2 members");
        assert!(input_bytes > 0, "phase input must be non-empty");
        let kind = match op {
            PhaseOp::ReduceScatter => Kind::RingRs,
            PhaseOp::AllGather => Kind::RingAg,
            PhaseOp::AllReduce => Kind::RingAr,
            PhaseOp::AllToAll => Kind::RingA2a,
        };
        PhaseMachine {
            kind,
            n,
            input_bytes,
            recvs: 0,
            started: false,
            completed: false,
        }
    }

    /// Builds a direct-algorithm machine directly (mostly for tests).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `input_bytes == 0`.
    pub fn direct(op: PhaseOp, n: usize, input_bytes: u64) -> Self {
        assert!(n >= 2, "group needs at least 2 members");
        assert!(input_bytes > 0, "phase input must be non-empty");
        let kind = match op {
            PhaseOp::ReduceScatter => Kind::DirectRs,
            PhaseOp::AllGather => Kind::DirectAg,
            PhaseOp::AllReduce => Kind::DirectAr,
            PhaseOp::AllToAll => Kind::DirectA2a,
        };
        PhaseMachine {
            kind,
            n,
            input_bytes,
            recvs: 0,
            started: false,
            completed: false,
        }
    }

    /// Builds a halving-doubling machine directly (mostly for tests).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two >= 2, `input_bytes == 0`, or
    /// `op` is all-to-all (no halving-doubling variant exists).
    pub fn halving_doubling(op: PhaseOp, n: usize, input_bytes: u64) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "halving-doubling needs a power-of-two group, got {n}"
        );
        assert!(input_bytes > 0, "phase input must be non-empty");
        let kind = match op {
            PhaseOp::ReduceScatter => Kind::HdRs,
            PhaseOp::AllGather => Kind::HdAg,
            PhaseOp::AllReduce => Kind::HdAr,
            PhaseOp::AllToAll => panic!("halving-doubling has no all-to-all variant"),
        };
        PhaseMachine {
            kind,
            n,
            input_bytes,
            recvs: 0,
            started: false,
            completed: false,
        }
    }

    /// Rounds of a halving-doubling phase (`log2 n`).
    fn hd_rounds(&self) -> u32 {
        self.n.trailing_zeros()
    }

    /// Message size at halving-doubling step `step`.
    fn hd_bytes(&self, step: u32) -> u64 {
        let rounds = self.hd_rounds();
        let shift = match self.kind {
            // RS halves each round: input/2, input/4, ...
            Kind::HdRs => step + 1,
            // AG doubles each round up to input: ends sending input/2.
            Kind::HdAg => rounds - step,
            // AR: RS stage then AG stage.
            Kind::HdAr => {
                if step < rounds {
                    step + 1
                } else {
                    2 * rounds - step
                }
            }
            _ => unreachable!("hd_bytes on non-HD machine"),
        };
        (self.input_bytes >> shift.min(63)).max(1)
    }

    /// XOR mask exchanged at halving-doubling step `step`.
    fn hd_mask(&self, step: u32) -> usize {
        let rounds = self.hd_rounds();
        match self.kind {
            // RS pairs far-to-near: n/2, n/4, ..., 1.
            Kind::HdRs => self.n >> (step + 1),
            // AG mirrors RS in reverse: 1, 2, ..., n/2.
            Kind::HdAg => 1 << step,
            Kind::HdAr => {
                if step < rounds {
                    self.n >> (step + 1)
                } else {
                    1 << (step - rounds)
                }
            }
            _ => unreachable!("hd_mask on non-HD machine"),
        }
    }

    /// Bytes of each message this machine sends (uniform within a phase for
    /// ring/direct algorithms; see [`PhaseMachine::message_bytes_for`] for
    /// step-dependent halving-doubling sizes).
    pub fn message_bytes(&self) -> u64 {
        let n = self.n as u64;
        match self.kind {
            Kind::RingAg | Kind::DirectAg => self.input_bytes,
            Kind::HdRs | Kind::HdAg | Kind::HdAr => self.hd_bytes(0),
            _ => self.input_bytes.div_ceil(n).max(1),
        }
    }

    /// Bytes of the message exchanged at `step` (halving-doubling sizes
    /// change per round; other algorithms are uniform).
    pub fn message_bytes_for(&self, step: u32) -> u64 {
        match self.kind {
            Kind::HdRs | Kind::HdAg | Kind::HdAr => self.hd_bytes(step),
            _ => self.message_bytes(),
        }
    }

    /// Total messages this NPU will receive during the phase.
    pub fn expected_receives(&self) -> u32 {
        let n1 = (self.n - 1) as u32;
        match self.kind {
            Kind::RingAr | Kind::DirectAr => 2 * n1,
            Kind::HdRs | Kind::HdAg => self.hd_rounds(),
            Kind::HdAr => 2 * self.hd_rounds(),
            _ => n1,
        }
    }

    /// Whether a message of `step` carries data that must be locally
    /// reduced on receipt (the system layer charges the local-update cost).
    pub fn reduces_on(&self, step: u32) -> bool {
        let n1 = (self.n - 1) as u32;
        match self.kind {
            Kind::RingRs | Kind::DirectRs | Kind::HdRs => true,
            Kind::RingAg | Kind::DirectAg | Kind::RingA2a | Kind::DirectA2a | Kind::HdAg => {
                false
            }
            Kind::RingAr => step < n1,
            Kind::DirectAr => step == 0,
            Kind::HdAr => step < self.hd_rounds(),
        }
    }

    /// Whether the phase has completed on this NPU.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// Kicks off the phase: appends the initial sends to `sends`.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self, sends: &mut Vec<SendCmd>) {
        assert!(!self.started, "phase already started");
        self.started = true;
        let msg = self.message_bytes();
        match self.kind {
            Kind::RingRs | Kind::RingAg | Kind::RingAr => sends.push(SendCmd {
                target: Target::RingNext,
                bytes: msg,
                step: 0,
            }),
            Kind::RingA2a => sends.extend((1..self.n).map(|d| SendCmd {
                target: Target::RingDistance(d),
                bytes: msg,
                step: d as u32,
            })),
            Kind::DirectRs | Kind::DirectAg | Kind::DirectAr | Kind::DirectA2a => {
                sends.extend((1..self.n).map(|off| SendCmd {
                    target: Target::GroupOffset(off),
                    bytes: msg,
                    step: 0,
                }));
            }
            Kind::HdRs | Kind::HdAg | Kind::HdAr => sends.push(SendCmd {
                target: Target::GroupXor(self.hd_mask(0)),
                bytes: self.hd_bytes(0),
                step: 0,
            }),
        }
    }

    /// Processes a received (and, if applicable, already-reduced) message of
    /// `step`: appends the follow-up sends to `sends` and returns whether
    /// the phase just completed on this NPU.
    ///
    /// # Errors
    ///
    /// Fails if the step is outside what the algorithm can accept at this
    /// point (protocol violation — indicates a system-layer bug). A rejected
    /// step leaves both the machine and `sends` untouched.
    pub fn on_receive(
        &mut self,
        step: u32,
        sends: &mut Vec<SendCmd>,
    ) -> Result<bool, CollectiveError> {
        if self.completed {
            return Err(CollectiveError::UnexpectedStep {
                step,
                expected: "none: phase already complete".into(),
            });
        }
        let n1 = (self.n - 1) as u32;
        let msg = self.message_bytes();
        let completed = match self.kind {
            Kind::RingRs | Kind::RingAg => {
                if step != self.recvs {
                    return Err(CollectiveError::UnexpectedStep {
                        step,
                        expected: format!("in-order step {}", self.recvs),
                    });
                }
                self.recvs += 1;
                if step + 1 < n1 {
                    sends.push(SendCmd {
                        target: Target::RingNext,
                        bytes: msg,
                        step: step + 1,
                    });
                }
                self.recvs == n1
            }
            Kind::RingAr => {
                if step != self.recvs {
                    return Err(CollectiveError::UnexpectedStep {
                        step,
                        expected: format!("in-order step {}", self.recvs),
                    });
                }
                self.recvs += 1;
                if step + 1 < 2 * n1 {
                    sends.push(SendCmd {
                        target: Target::RingNext,
                        bytes: msg,
                        step: step + 1,
                    });
                }
                self.recvs == 2 * n1
            }
            Kind::RingA2a => {
                if step == 0 || step > n1 {
                    return Err(CollectiveError::UnexpectedStep {
                        step,
                        expected: format!("distance in 1..={n1}"),
                    });
                }
                self.recvs += 1;
                self.recvs == n1
            }
            Kind::DirectRs | Kind::DirectAg | Kind::DirectA2a => {
                if step != 0 {
                    return Err(CollectiveError::UnexpectedStep {
                        step,
                        expected: "step 0".into(),
                    });
                }
                self.recvs += 1;
                self.recvs == n1
            }
            Kind::HdRs | Kind::HdAg | Kind::HdAr => {
                if step != self.recvs {
                    return Err(CollectiveError::UnexpectedStep {
                        step,
                        expected: format!("in-order step {}", self.recvs),
                    });
                }
                self.recvs += 1;
                let total = self.expected_receives();
                if self.recvs < total {
                    let next = self.recvs;
                    sends.push(SendCmd {
                        target: Target::GroupXor(self.hd_mask(next)),
                        bytes: self.hd_bytes(next),
                        step: next,
                    });
                }
                self.recvs == total
            }
            Kind::DirectAr => {
                let stage = if self.recvs < n1 { 0 } else { 1 };
                if step != stage {
                    return Err(CollectiveError::UnexpectedStep {
                        step,
                        expected: format!("stage {stage}"),
                    });
                }
                self.recvs += 1;
                if self.recvs == n1 {
                    // Reduce-scatter stage done: broadcast the reduced shard.
                    sends.extend((1..self.n).map(|off| SendCmd {
                        target: Target::GroupOffset(off),
                        bytes: msg,
                        step: 1,
                    }));
                }
                self.recvs == 2 * n1
            }
        };
        if completed {
            self.completed = true;
        }
        Ok(completed)
    }

    /// Total bytes this NPU sends over the whole phase.
    pub fn bytes_sent_total(&self) -> u64 {
        let n1 = (self.n - 1) as u64;
        match self.kind {
            Kind::RingRs | Kind::DirectRs | Kind::RingA2a | Kind::DirectA2a => {
                n1 * self.message_bytes()
            }
            Kind::RingAg | Kind::DirectAg => n1 * self.message_bytes(),
            Kind::RingAr | Kind::DirectAr => 2 * n1 * self.message_bytes(),
            Kind::HdRs | Kind::HdAg | Kind::HdAr => (0..self.expected_receives())
                .map(|s| self.hd_bytes(s))
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The initial sends, in a fresh buffer.
    pub(super) fn start(m: &mut PhaseMachine) -> Vec<SendCmd> {
        let mut sends = Vec::new();
        m.start(&mut sends);
        sends
    }

    /// One receive: (completed, follow-up sends).
    pub(super) fn recv(
        m: &mut PhaseMachine,
        step: u32,
    ) -> Result<(bool, Vec<SendCmd>), CollectiveError> {
        let mut sends = Vec::new();
        let completed = m.on_receive(step, &mut sends)?;
        Ok((completed, sends))
    }

    /// Runs a single machine against a loopback harness: we simulate a
    /// symmetric system by feeding back the steps this node itself emits
    /// (every peer runs the identical program).
    fn run_ring_symmetric(op: PhaseOp, n: usize, input: u64) -> (u64, u32) {
        let mut m = PhaseMachine::ring(op, n, input);
        let mut pending: Vec<u32> = start(&mut m).iter().map(|s| s.step).collect();
        let mut sent: u64 = pending.len() as u64 * m.message_bytes();
        let mut recvs = 0;
        while let Some(step) = pending.pop() {
            let (completed, sends) = recv(&mut m, step).unwrap();
            recvs += 1;
            for s in sends {
                sent += s.bytes;
                pending.push(s.step);
            }
            if completed {
                break;
            }
            pending.sort_unstable_by(|a, b| b.cmp(a)); // process lowest step first
        }
        assert!(m.is_complete());
        (sent, recvs)
    }

    #[test]
    fn ring_rs_counts() {
        let (sent, recvs) = run_ring_symmetric(PhaseOp::ReduceScatter, 4, 4096);
        assert_eq!(recvs, 3);
        assert_eq!(sent, 3 * 1024); // (n-1)/n of input
    }

    #[test]
    fn ring_ag_counts() {
        let (sent, recvs) = run_ring_symmetric(PhaseOp::AllGather, 4, 1024);
        assert_eq!(recvs, 3);
        assert_eq!(sent, 3 * 1024); // (n-1) shards of input size
    }

    #[test]
    fn ring_ar_counts() {
        let (sent, recvs) = run_ring_symmetric(PhaseOp::AllReduce, 4, 4096);
        assert_eq!(recvs, 6); // 2(n-1)
        assert_eq!(sent, 6 * 1024); // 2(n-1)/n of input
    }

    #[test]
    fn ring_a2a_is_one_shot() {
        let mut m = PhaseMachine::ring(PhaseOp::AllToAll, 4, 4096);
        let sends = start(&mut m);
        assert_eq!(sends.len(), 3);
        let targets: Vec<Target> = sends.iter().map(|s| s.target).collect();
        assert_eq!(
            targets,
            vec![
                Target::RingDistance(1),
                Target::RingDistance(2),
                Target::RingDistance(3)
            ]
        );
        // Receives arrive in any order.
        assert!(!recv(&mut m, 2).unwrap().0);
        assert!(!recv(&mut m, 3).unwrap().0);
        assert!(recv(&mut m, 1).unwrap().0);
    }

    #[test]
    fn direct_ar_two_stages() {
        let mut m = PhaseMachine::direct(PhaseOp::AllReduce, 4, 4096);
        let first = start(&mut m);
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|s| s.step == 0 && s.bytes == 1024));
        assert!(m.reduces_on(0));
        assert!(!m.reduces_on(1));
        // Stage 0: three reduced receives; the third triggers the broadcast.
        assert!(recv(&mut m, 0).unwrap().1.is_empty());
        assert!(recv(&mut m, 0).unwrap().1.is_empty());
        let (completed, sends) = recv(&mut m, 0).unwrap();
        assert_eq!(sends.len(), 3);
        assert!(sends.iter().all(|s| s.step == 1));
        assert!(!completed);
        // Stage 1: three more receives complete the phase.
        recv(&mut m, 1).unwrap();
        recv(&mut m, 1).unwrap();
        assert!(recv(&mut m, 1).unwrap().0);
        assert_eq!(m.bytes_sent_total(), 6 * 1024);
    }

    #[test]
    fn direct_ag_broadcasts_full_input() {
        let mut m = PhaseMachine::direct(PhaseOp::AllGather, 3, 500);
        let sends = start(&mut m);
        assert_eq!(sends.len(), 2);
        assert!(sends.iter().all(|s| s.bytes == 500));
    }

    #[test]
    fn reduce_flags_match_op() {
        assert!(PhaseMachine::ring(PhaseOp::ReduceScatter, 4, 64).reduces_on(2));
        assert!(!PhaseMachine::ring(PhaseOp::AllGather, 4, 64).reduces_on(0));
        let ar = PhaseMachine::ring(PhaseOp::AllReduce, 4, 64);
        assert!(ar.reduces_on(2)); // RS half
        assert!(!ar.reduces_on(3)); // AG half
        assert!(!PhaseMachine::ring(PhaseOp::AllToAll, 4, 64).reduces_on(1));
    }

    #[test]
    fn protocol_violations_rejected() {
        let mut m = PhaseMachine::ring(PhaseOp::ReduceScatter, 4, 64);
        start(&mut m);
        assert!(recv(&mut m, 2).is_err()); // out of order
        let mut a2a = PhaseMachine::ring(PhaseOp::AllToAll, 4, 64);
        start(&mut a2a);
        assert!(recv(&mut a2a, 0).is_err()); // distance 0 invalid
        assert!(recv(&mut a2a, 9).is_err());
    }

    #[test]
    fn receive_after_complete_is_error() {
        let mut m = PhaseMachine::direct(PhaseOp::ReduceScatter, 2, 64);
        start(&mut m);
        assert!(recv(&mut m, 0).unwrap().0);
        assert!(recv(&mut m, 0).is_err());
    }

    #[test]
    fn tiny_inputs_never_send_zero_bytes() {
        let m = PhaseMachine::ring(PhaseOp::ReduceScatter, 8, 3);
        assert!(m.message_bytes() >= 1);
    }

    #[test]
    #[should_panic(expected = "already started")]
    fn double_start_panics() {
        let mut m = PhaseMachine::ring(PhaseOp::AllGather, 2, 64);
        start(&mut m);
        start(&mut m);
    }
}

#[cfg(test)]
mod hd_tests {
    use super::tests::{recv, start};
    use super::*;

    #[test]
    fn hd_rs_structure() {
        // n = 8: 3 rounds, masks 4, 2, 1; sizes input/2, input/4, input/8.
        let mut m = PhaseMachine::halving_doubling(PhaseOp::ReduceScatter, 8, 8192);
        assert_eq!(m.expected_receives(), 3);
        let s = start(&mut m);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].target, Target::GroupXor(4));
        assert_eq!(s[0].bytes, 4096);
        let (completed, sends) = recv(&mut m, 0).unwrap();
        assert!(!completed);
        assert_eq!(sends[0].target, Target::GroupXor(2));
        assert_eq!(sends[0].bytes, 2048);
        let (completed, sends) = recv(&mut m, 1).unwrap();
        assert!(!completed);
        assert_eq!(sends[0].target, Target::GroupXor(1));
        assert_eq!(sends[0].bytes, 1024);
        assert!(recv(&mut m, 2).unwrap().0);
        // Total sent = input * (1 - 1/n).
        assert_eq!(m.bytes_sent_total(), 4096 + 2048 + 1024);
    }

    #[test]
    fn hd_ag_mirrors_rs() {
        // AG from a shard: masks 1, 2, 4; sizes input, ... hmm sizes
        // input/2^(rounds-step): for input = 8192 (the shard): 1024?? No:
        // AG input is the shard; step sizes are shard, 2*shard, 4*shard
        // relative to the *final* gathered data = input here is the shard.
        let mut m = PhaseMachine::halving_doubling(PhaseOp::AllGather, 8, 1024);
        let s = start(&mut m);
        assert_eq!(s[0].target, Target::GroupXor(1));
        // hd_bytes(0) = input >> (rounds - 0) = 1024 >> 3 = 128.
        // Total sent over 3 rounds = 128 + 256 + 512 = 896 = input*(n-1)/n.
        assert_eq!(m.bytes_sent_total(), 896);
        recv(&mut m, 0).unwrap();
        recv(&mut m, 1).unwrap();
        assert!(recv(&mut m, 2).unwrap().0);
    }

    #[test]
    fn hd_ar_is_bandwidth_optimal() {
        let input = 1 << 20;
        let m = PhaseMachine::halving_doubling(PhaseOp::AllReduce, 16, input);
        assert_eq!(m.expected_receives(), 8); // 2 * log2(16)
        // 2(n-1)/n of input.
        assert_eq!(m.bytes_sent_total() as f64, input as f64 * 2.0 * 15.0 / 16.0);
        assert!(m.reduces_on(3));
        assert!(!m.reduces_on(4));
    }

    #[test]
    fn hd_ar_runs_to_completion_symmetrically() {
        let mut m = PhaseMachine::halving_doubling(PhaseOp::AllReduce, 4, 4096);
        let mut pending: Vec<u32> = start(&mut m).iter().map(|s| s.step).collect();
        let mut recvs = 0;
        while let Some(step) = pending.pop() {
            let (completed, sends) = recv(&mut m, step).unwrap();
            recvs += 1;
            pending.extend(sends.iter().map(|s| s.step));
            if completed {
                break;
            }
        }
        assert_eq!(recvs, 4);
        assert!(m.is_complete());
    }

    #[test]
    fn hd_out_of_order_rejected() {
        let mut m = PhaseMachine::halving_doubling(PhaseOp::ReduceScatter, 8, 64);
        start(&mut m);
        assert!(recv(&mut m, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn hd_requires_power_of_two() {
        PhaseMachine::halving_doubling(PhaseOp::AllReduce, 6, 64);
    }

    #[test]
    #[should_panic(expected = "all-to-all")]
    fn hd_has_no_a2a() {
        PhaseMachine::halving_doubling(PhaseOp::AllToAll, 4, 64);
    }

    #[test]
    fn tiny_hd_messages_never_zero() {
        let m = PhaseMachine::halving_doubling(PhaseOp::ReduceScatter, 8, 3);
        for step in 0..3 {
            assert!(m.message_bytes_for(step) >= 1);
        }
    }
}
