//! Endpoint modeling: per-chunk phase state, endpoint delay, and local
//! reduction cost.
//!
//! Every received message is charged a constant `endpoint-delay` plus — on
//! reducing steps — a local-update cost proportional to the payload
//! (Table IV, Fig 8's per-layer "local update time"). This module owns the
//! chunk/collective runtime state the event loop advances and the
//! machine-stepping logic, so [`crate::SystemSim`] only sequences events.

use crate::CollReport;
use astra_collectives::{CollectiveError, CollectivePlan, PhaseMachine, SendCmd};
use astra_des::Time;

/// Per-chunk runtime state on one NPU.
#[derive(Debug)]
pub(crate) struct ChunkState {
    pub(crate) bytes: u64,
    pub(crate) phase: u8,
    pub(crate) entered_phase_at: Time,
    pub(crate) machine: Option<PhaseMachine>,
    /// Messages that arrived before this NPU entered their phase
    /// (neighbors can run ahead): (phase, step), drained at phase entry.
    pub(crate) pending: Vec<(u8, u32)>,
    /// Current-phase steps that overtook a predecessor still in flight
    /// behind a retransmission or reroute (only possible under a fault
    /// plan); retried after each successful receive.
    pub(crate) deferred: Vec<u32>,
    pub(crate) done: bool,
}

impl ChunkState {
    /// Drains the early-arrived messages buffered for `phase`, in step
    /// order, leaving later phases' messages queued.
    pub(crate) fn take_early(&mut self, phase: u8) -> Vec<u32> {
        let mut early: Vec<u32> = self
            .pending
            .iter()
            .filter(|(p, _)| *p == phase)
            .map(|(_, s)| *s)
            .collect();
        self.pending.retain(|(p, _)| *p != phase);
        early.sort_unstable();
        early
    }
}

/// One NPU's share of a collective.
#[derive(Debug)]
pub(crate) struct NpuColl {
    pub(crate) chunks: Vec<ChunkState>,
    pub(crate) chunks_done: u32,
}

/// Global state of an in-flight collective.
pub(crate) struct CollState {
    pub(crate) plan: CollectivePlan,
    pub(crate) update_per_kb: Time,
    pub(crate) per_npu: Vec<NpuColl>,
    pub(crate) npus_done: usize,
    pub(crate) report: CollReport,
}

impl CollState {
    /// Fresh state for a collective of `chunk_bytes` chunks issued at
    /// `now` on `num_npus` NPUs.
    pub(crate) fn new(
        plan: CollectivePlan,
        update_per_kb: Time,
        num_npus: usize,
        chunk_bytes: &[u64],
        set_bytes: u64,
        now: Time,
    ) -> Self {
        let per_npu = (0..num_npus)
            .map(|_| NpuColl {
                chunks: chunk_bytes
                    .iter()
                    .map(|&b| ChunkState {
                        bytes: b,
                        phase: 0,
                        entered_phase_at: Time::ZERO,
                        machine: None,
                        pending: Vec::new(),
                        deferred: Vec::new(),
                        done: false,
                    })
                    .collect(),
                chunks_done: 0,
            })
            .collect();
        let phases = plan.phases().len();
        CollState {
            plan,
            update_per_kb,
            per_npu,
            npus_done: 0,
            report: CollReport {
                set_bytes,
                chunks: chunk_bytes.len() as u32,
                phases,
                issued_at: now,
                first_npu_done: Time::ZERO,
                finished_at: Time::ZERO,
                ready_delay: Default::default(),
                phase_queue: Vec::new(),
                phase_network: Vec::new(),
            },
        }
    }

    /// Folds one message's source-queueing and in-network delay into the
    /// report's per-phase histograms.
    pub(crate) fn record_arrival(&mut self, phase: usize, queueing: Time, wire: Time) {
        let r = &mut self.report;
        if phase >= r.phase_queue.len() {
            r.phase_queue.resize_with(phase + 1, Default::default);
            r.phase_network.resize_with(phase + 1, Default::default);
        }
        r.phase_queue[phase].record_time(queueing);
        r.phase_network[phase].record_time(wire);
    }
}

/// Endpoint processing time for receiving `step`: the constant endpoint
/// delay, plus the local-update cost of reducing the step's payload when
/// the step reduces.
pub(crate) fn receive_cost(
    endpoint_delay: Time,
    update_per_kb: Time,
    machine: &PhaseMachine,
    step: u32,
) -> Time {
    let mut delay = endpoint_delay;
    if machine.reduces_on(step) {
        let kb = machine.message_bytes_for(step).div_ceil(1024);
        delay += Time::from_cycles(update_per_kb.cycles() * kb);
    }
    delay
}

/// Feeds a received `step` into the chunk's phase machine and drains any
/// previously deferred steps it unblocks, appending every resulting send
/// to `sends`. Returns whether the phase completed.
///
/// Under an active fault plan a step that overtook its predecessor is held
/// back in `deferred` (appending nothing); without one, out-of-order steps
/// stay hard errors.
pub(crate) fn absorb_step(
    machine: &mut PhaseMachine,
    deferred: &mut Vec<u32>,
    step: u32,
    faults_active: bool,
    sends: &mut Vec<SendCmd>,
) -> Result<bool, CollectiveError> {
    let mut completed = match machine.on_receive(step, sends) {
        Ok(completed) => completed,
        // Under a fault plan, a step can overtake its predecessor: the
        // predecessor may be stalled behind a retransmission timeout or
        // a longer rerouted path. Hold the early step back and retry it
        // once the machine advances. Without faults the strict protocol
        // check stands — out-of-order steps stay hard errors.
        Err(CollectiveError::UnexpectedStep { .. }) if faults_active => {
            deferred.push(step);
            return Ok(false);
        }
        Err(e) => return Err(e),
    };
    // Each accepted step may unblock held-back successors; drain until
    // a full sweep makes no progress.
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < deferred.len() {
            match machine.on_receive(deferred[i], sends) {
                Ok(done) => {
                    deferred.swap_remove(i);
                    completed |= done;
                    progressed = true;
                }
                Err(CollectiveError::UnexpectedStep { .. }) => i += 1,
                Err(e) => return Err(e),
            }
        }
        if !progressed {
            break;
        }
    }
    debug_assert!(
        !completed || deferred.is_empty(),
        "phase completed with steps still deferred"
    );
    Ok(completed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk() -> ChunkState {
        ChunkState {
            bytes: 1024,
            phase: 0,
            entered_phase_at: Time::ZERO,
            machine: None,
            pending: Vec::new(),
            deferred: Vec::new(),
            done: false,
        }
    }

    #[test]
    fn take_early_filters_and_sorts_one_phase() {
        let mut c = chunk();
        c.pending = vec![(1, 5), (0, 3), (1, 2), (2, 0), (1, 9)];
        assert_eq!(c.take_early(1), [2, 5, 9]);
        assert_eq!(c.pending, [(0, 3), (2, 0)]);
        assert_eq!(c.take_early(3), Vec::<u32>::new());
    }

    #[test]
    fn record_arrival_grows_phase_histograms_on_demand() {
        use astra_collectives::{plan, Algorithm, CollectiveOp};
        use astra_topology::{LogicalTopology, Torus3d};
        let topo = LogicalTopology::torus(Torus3d::new(1, 4, 1, 1, 1, 1).unwrap());
        let p = plan(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, None).unwrap();
        let mut cs = CollState::new(p, Time::from_cycles(2), 4, &[512, 512], 1024, Time::ZERO);
        cs.record_arrival(2, Time::from_cycles(7), Time::from_cycles(11));
        assert_eq!(cs.report.phase_queue.len(), 3);
        assert_eq!(cs.report.phase_queue[2].count(), 1);
        assert_eq!(cs.report.phase_network[2].count(), 1);
        assert_eq!(cs.report.phase_queue[0].count(), 0);
        assert_eq!(cs.report.chunks, 2);
    }
}
