//! The system-layer master event loop.
//!
//! Staged architecture: this module only *sequences* — it owns the event
//! queue and the public driving API, and delegates each concern to its
//! module: chunk scheduling to [`crate::scheduler`], endpoint/local-update
//! modeling to `endpoint`, loss/retransmit/reroute machinery to
//! `transport`.
//!
//! In steady state the hot loop performs no per-event heap allocation:
//! deferred sends ride the queue as `u32` slab keys
//! ([`astra_des::SlabKey`]) into the transport's payload arena; phase
//! machines append their sends into one reused buffer (`sends_scratch`),
//! as backends do with arrivals (`arrivals_scratch`); routes come from a
//! cache of shared hop lists (see `routing`); and every per-event map is an
//! [`astra_des::IdMap`] whose capacity, once grown, is reused. Allocation
//! happens only when something is seen for the first time: a new route, a
//! new high-water mark of in-flight state, a new collective's bookkeeping
//! (including each chunk's buffer of messages that arrived before the
//! chunk entered their phase).

use crate::endpoint::{self, ChunkState, CollState};
use crate::routing::{Overlay, RouteKey};
use crate::scheduler::{Npu, QueuedChunk};
use crate::transport::Transport;
use crate::{
    BackendKind, CallbackId, CollId, CollReport, CollectiveRequest, Notification, PhaseSpan,
    SystemConfig, SystemError, SystemStats, Tag,
};
use astra_collectives::{plan_with_intra, PhaseMachine, SendCmd};
use astra_des::{EventQueue, IdMap, SlabKey, Time};
use astra_network::{
    Arrival, Backend, FaultError, FaultPlan, NetEvent, NetScheduler, NetworkConfig,
};
use astra_topology::{LogicalTopology, NodeId, Route};
use std::collections::VecDeque;
use std::fmt;

/// Master event type: network events plus system-layer events. Deferred
/// sends carry 4-byte arena keys, never boxed payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SysEvent {
    Net(NetEvent),
    /// Endpoint processing (endpoint delay + local reduction) of a received
    /// message finished; advance the chunk's phase machine.
    EndpointDone {
        npu: u32,
        coll: u64,
        chunk: u32,
        phase: u8,
        step: u32,
    },
    Callback(u64),
    /// A paced message injection (`injection-policy: normal`); the key
    /// claims the parked payload from the transport arena.
    Inject(SlabKey),
    /// Retransmission of a scale-out message dropped by lossy transport;
    /// the key claims the parked payload (and its attempt counter).
    Retransmit(SlabKey),
}

/// Wrapper giving backends scheduling access to the master queue.
pub(crate) struct NetQ<'a>(pub(crate) &'a mut EventQueue<SysEvent>);

impl NetScheduler for NetQ<'_> {
    fn now(&self) -> Time {
        self.0.now()
    }
    fn schedule_at(&mut self, at: Time, event: NetEvent) {
        self.0.schedule_at(at, SysEvent::Net(event));
    }
}

/// The system-layer simulator; see the crate documentation for the model.
///
/// Fields are crate-visible because the send half of the machinery (route
/// synthesis, overlay resolution, injection) lives in `routing` as a
/// second `impl` block.
pub struct SystemSim {
    pub(crate) topo: LogicalTopology,
    pub(crate) cfg: SystemConfig,
    pub(crate) net_cfg: NetworkConfig,
    pub(crate) net: Box<dyn Backend>,
    pub(crate) overlay: Option<Overlay>,
    pub(crate) queue: EventQueue<SysEvent>,
    pub(crate) npus: Vec<Npu>,
    pub(crate) colls: IdMap<u64, CollState>,
    pub(crate) reports: IdMap<u64, CollReport>,
    /// Synthesized routes, filled lazily (see `routing`).
    pub(crate) routes: IdMap<RouteKey, Route>,
    pub(crate) notifications: VecDeque<Notification>,
    pub(crate) stats: SystemStats,
    pub(crate) trace: Option<Vec<PhaseSpan>>,
    pub(crate) next_coll: u64,
    pub(crate) next_msg: u64,
    pub(crate) next_cb: u64,
    pub(crate) arrivals_scratch: Vec<Arrival>,
    /// Reused buffer the phase machines append their sends into.
    pub(crate) sends_scratch: Vec<SendCmd>,
    pub(crate) transport: Transport,
}

impl fmt::Debug for SystemSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemSim")
            .field("topo", &self.topo.shape_string())
            .field("now", &self.queue.now())
            .field("inflight_colls", &self.colls.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl SystemSim {
    /// Builds a simulator over `topo` with the chosen network backend.
    ///
    /// # Panics
    ///
    /// Panics if the configs fail validation.
    pub fn new(
        topo: LogicalTopology,
        cfg: SystemConfig,
        net_cfg: &NetworkConfig,
        backend: BackendKind,
    ) -> Self {
        let net = backend.build(&topo, net_cfg);
        Self::with_backend(topo, cfg, net_cfg, net)
    }

    /// Builds a simulator over a caller-provided backend (the "lightweight
    /// interface" portability point of §IV).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_backend(
        topo: LogicalTopology,
        cfg: SystemConfig,
        net_cfg: &NetworkConfig,
        net: Box<dyn Backend>,
    ) -> Self {
        cfg.validate();
        let n = topo.num_npus();
        SystemSim {
            topo,
            cfg,
            net_cfg: *net_cfg,
            net,
            overlay: None,
            queue: EventQueue::new(),
            npus: (0..n).map(|_| Npu::new(cfg.scheduling)).collect(),
            colls: IdMap::default(),
            reports: IdMap::default(),
            routes: IdMap::default(),
            notifications: VecDeque::new(),
            stats: SystemStats::default(),
            trace: None,
            next_coll: 0,
            next_msg: 0,
            next_cb: 0,
            arrivals_scratch: Vec::new(),
            sends_scratch: Vec::new(),
            transport: Transport::new(),
        }
    }

    /// Installs a deterministic fault plan: link outage/degradation windows
    /// go to the network backend, loss parameters arm the retransmission
    /// machinery, and stragglers are exposed to the compute/workload layers
    /// through [`SystemSim::faults`]. All loss randomness derives from the
    /// plan's seed, so a `(seed, plan)` pair replays cycle-identically;
    /// installing `FaultPlan::default()` is equivalent to never calling
    /// this.
    ///
    /// # Errors
    ///
    /// Fails if the plan's values are out of range or reference nodes the
    /// fabric does not have.
    pub fn install_faults(&mut self, plan: &FaultPlan) -> Result<(), SystemError> {
        let physical = self
            .overlay
            .as_ref()
            .map(|o| &o.physical)
            .unwrap_or(&self.topo);
        plan.validate_for(physical.num_network_nodes())?;
        // Link faults may name switches; stragglers are NPUs only.
        let num_npus = self.topo.num_npus();
        for s in &plan.stragglers {
            if s.npu >= num_npus {
                return Err(FaultError::NodeOutOfRange {
                    what: "straggler",
                    node: s.npu,
                    num_nodes: num_npus,
                }
                .into());
            }
        }
        self.net.install_link_faults(plan);
        self.transport.install(plan);
        Ok(())
    }

    /// The installed fault plan (empty unless
    /// [`SystemSim::install_faults`] was called).
    pub fn faults(&self) -> &FaultPlan {
        self.transport.faults()
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// The topology the simulator runs over.
    pub fn topology(&self) -> &LogicalTopology {
        &self.topo
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Aggregate system statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Starts recording per-chunk phase spans (for Chrome trace export).
    /// Call before issuing work; spans accumulate until the simulator is
    /// dropped.
    pub fn enable_tracing(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
    }

    /// Recorded phase spans, if tracing was enabled.
    pub fn trace(&self) -> Option<&[PhaseSpan]> {
        self.trace.as_deref()
    }

    /// Network backend statistics.
    pub fn net_stats(&self) -> &astra_network::NetStats {
        self.net.stats()
    }

    /// The archived report of a completed collective.
    pub fn report(&self, coll: CollId) -> Option<&CollReport> {
        self.reports.get(&coll.0)
    }

    /// Audits that the whole stack is quiescent: no pending events, no
    /// in-flight collectives, an empty transport arena, and a backend whose
    /// conserved resources (credits, flits, in-flight maps) are restored.
    ///
    /// The conformance harness calls this after a simulation drains to catch
    /// leaked state that aggregate statistics would never show.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation found.
    pub fn audit_quiescent(&self) -> Result<(), String> {
        if !self.queue.is_empty() {
            return Err(format!(
                "system: {} event(s) still queued at quiescence",
                self.queue.len()
            ));
        }
        if !self.colls.is_empty() {
            return Err(format!(
                "system: {} collective(s) still in flight",
                self.colls.len()
            ));
        }
        if !self.transport.arena_is_empty() {
            return Err(format!(
                "system: transport arena holds {} unclaimed parked send(s)",
                self.transport.arena_len()
            ));
        }
        self.net.audit_quiescent()
    }

    /// Issues a collective on every NPU. Each NPU gets its own
    /// [`Notification::CollectiveDone`] when its participation finishes.
    ///
    /// # Errors
    ///
    /// Fails on empty sets or if no active dimension matches the request.
    pub fn issue_collective(&mut self, req: CollectiveRequest) -> Result<CollId, SystemError> {
        if req.bytes == 0 {
            return Err(SystemError::EmptySet);
        }
        let algorithm = req.algorithm.unwrap_or(self.cfg.algorithm);
        let p = plan_with_intra(
            &self.topo,
            req.op,
            algorithm,
            req.dims.as_deref(),
            self.cfg.intra_algo,
        )?;
        let id = self.next_coll;
        self.next_coll += 1;

        // Chunking: split the set into (up to) `set_splits` chunks,
        // distributing the remainder over the first chunks.
        let splits = u64::from(self.cfg.set_splits).min(req.bytes) as u32;
        let base = req.bytes / u64::from(splits);
        let rem = req.bytes % u64::from(splits);
        let chunk_bytes: Vec<u64> = (0..splits)
            .map(|c| base + u64::from(u64::from(c) < rem))
            .collect();

        let now = self.now();
        self.colls.insert(
            id,
            CollState::new(
                p,
                req.local_update_per_kb
                    .unwrap_or(self.cfg.local_update_per_kb),
                self.topo.num_npus(),
                &chunk_bytes,
                req.bytes,
                now,
            ),
        );

        // Admit the chunk batch to every NPU's ready queue (the scheduling
        // policy decides where it lands) and kick the dispatchers.
        let batch: Vec<QueuedChunk> = chunk_bytes
            .iter()
            .enumerate()
            .map(|(c, &bytes)| QueuedChunk {
                coll: id,
                chunk: c as u32,
                bytes,
                queued_at: now,
            })
            .collect();
        for npu in &mut self.npus {
            npu.sched.admit(&batch);
        }
        for npu in 0..self.npus.len() {
            self.maybe_dispatch(npu)?;
        }
        Ok(CollId(id))
    }

    /// Schedules a workload callback `delay` from now; a
    /// [`Notification::Callback`] with the returned id fires then.
    pub fn schedule_callback(&mut self, delay: Time) -> CallbackId {
        let id = self.next_cb;
        self.next_cb += 1;
        self.queue.schedule_in(delay, SysEvent::Callback(id));
        CallbackId(id)
    }

    /// Processes events until a notification is available (returning it) or
    /// the simulation drains (returning `None`).
    ///
    /// # Errors
    ///
    /// Propagates any error raised while processing events; see
    /// [`SystemSim::step`].
    pub fn run_until_notification(&mut self) -> Result<Option<Notification>, SystemError> {
        loop {
            if let Some(n) = self.notifications.pop_front() {
                return Ok(Some(n));
            }
            if !self.step()? {
                return Ok(self.notifications.pop_front());
            }
        }
    }

    /// Runs until no events remain; returns the final time. Any pending
    /// notifications stay queued for [`SystemSim::run_until_notification`].
    ///
    /// # Errors
    ///
    /// Propagates any error raised while processing events; see
    /// [`SystemSim::step`].
    pub fn run_until_idle(&mut self) -> Result<Time, SystemError> {
        while self.step()? {}
        Ok(self.now())
    }

    /// Processes a single event. Returns `Ok(false)` when the queue is
    /// empty.
    ///
    /// # Errors
    ///
    /// Fails on route-synthesis or protocol violations (system-layer bugs
    /// surfaced as typed errors), on [`SystemError::Unreachable`] when down
    /// links disconnect a sender from its destination, and on
    /// [`SystemError::RetriesExhausted`] when lossy transport defeats the
    /// retransmission budget.
    pub fn step(&mut self) -> Result<bool, SystemError> {
        let Some((_, ev)) = self.queue.pop() else {
            return Ok(false);
        };
        match ev {
            SysEvent::Net(nev) => {
                let mut arrivals = std::mem::take(&mut self.arrivals_scratch);
                arrivals.clear();
                self.net.handle(&mut NetQ(&mut self.queue), nev, &mut arrivals);
                let mut result = Ok(());
                for a in &arrivals {
                    result = self.on_arrival(*a);
                    if result.is_err() {
                        break;
                    }
                }
                self.arrivals_scratch = arrivals;
                result?;
            }
            SysEvent::EndpointDone {
                npu,
                coll,
                chunk,
                phase,
                step,
            } => self.on_endpoint_done(npu as usize, coll, chunk, phase, step)?,
            SysEvent::Callback(id) => {
                let time = self.now();
                self.notifications.push_back(Notification::Callback {
                    id: CallbackId(id),
                    time,
                });
            }
            SysEvent::Inject(key) | SysEvent::Retransmit(key) => {
                let p = self.transport.claim(key)?;
                self.send_now(p.msg, p.route, p.attempt)?;
            }
        }
        Ok(true)
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    // ---- internals ----------------------------------------------------

    /// Fig 7's dispatcher: if fewer than T chunks are in their first phase,
    /// issue up to P chunks from the ready queue.
    fn maybe_dispatch(&mut self, npu: usize) -> Result<(), SystemError> {
        if self.npus[npu].active_first_phase >= self.cfg.dispatcher_threshold {
            return Ok(());
        }
        for _ in 0..self.cfg.dispatcher_batch {
            let Some(q) = self.npus[npu].sched.pop() else {
                break;
            };
            let wait = self.now() - q.queued_at;
            self.stats.record_ready_delay(wait);
            if let Some(cs) = self.colls.get_mut(&q.coll) {
                cs.report.ready_delay.record_time(wait);
            }
            self.npus[npu].active_first_phase += 1;
            self.enter_phase(npu, q.coll, q.chunk, 0)?;
        }
        Ok(())
    }

    /// Moves a chunk into phase `phase`: builds the machine, issues initial
    /// sends, drains any early-arrived messages.
    fn enter_phase(&mut self, npu: usize, coll: u64, chunk: u32, phase: u8) -> Result<(), SystemError> {
        let cs = self
            .colls
            .get_mut(&coll)
            .ok_or(SystemError::UnknownCollective { coll })?;
        let spec = cs.plan.phases()[phase as usize];
        let chunk_state = &mut cs.per_npu[npu].chunks[chunk as usize];
        chunk_state.phase = phase;
        chunk_state.entered_phase_at = self.queue.now();
        let mut machine = PhaseMachine::new(&spec, chunk_state.bytes);
        let mut sends = std::mem::take(&mut self.sends_scratch);
        sends.clear();
        machine.start(&mut sends);
        chunk_state.machine = Some(machine);
        let early = chunk_state.take_early(phase);

        let issued = self.issue_sends(npu, coll, chunk, phase, &sends);
        self.sends_scratch = sends;
        issued?;
        for step in early {
            self.schedule_endpoint(npu, coll, chunk, phase, step)?;
        }
        Ok(())
    }

    /// A message reached its destination NPU: record stats and start
    /// endpoint processing (or buffer if the chunk is not in that phase yet).
    fn on_arrival(&mut self, arrival: Arrival) -> Result<(), SystemError> {
        if self.transport.consume_doomed(&arrival.message.id) {
            // Dropped in transit: the wire bandwidth was consumed but the
            // payload is lost; its retransmission is already scheduled.
            return Ok(());
        }
        let tag = Tag::unpack(arrival.message.tag);
        let npu = match &self.overlay {
            None => arrival.message.dst.index(),
            Some(o) => o.inverse[arrival.message.dst.index()],
        };
        let queueing = arrival.source_queueing();
        let wire = arrival.wire_time();
        self.stats
            .record_message(tag.phase as usize, queueing, wire);
        let cs = self
            .colls
            .get_mut(&tag.coll)
            .ok_or(SystemError::UnknownCollective { coll: tag.coll })?;
        cs.record_arrival(tag.phase as usize, queueing, wire);
        let chunk_state = &mut cs.per_npu[npu].chunks[tag.chunk as usize];
        let ready_for_it = chunk_state.machine.is_some() && chunk_state.phase == tag.phase;
        if ready_for_it {
            self.schedule_endpoint(npu, tag.coll, tag.chunk, tag.phase, tag.step)?;
        } else {
            if tag.phase < chunk_state.phase || chunk_state.done {
                return Err(SystemError::Protocol {
                    what: format!(
                        "message for a past phase: tag {tag:?} vs chunk phase {}",
                        chunk_state.phase
                    ),
                });
            }
            chunk_state.pending.push((tag.phase, tag.step));
        }
        Ok(())
    }

    /// Charges endpoint delay plus (for reducing steps) local-update cost,
    /// then fires `EndpointDone`.
    fn schedule_endpoint(
        &mut self,
        npu: usize,
        coll: u64,
        chunk: u32,
        phase: u8,
        step: u32,
    ) -> Result<(), SystemError> {
        let cs = self
            .colls
            .get(&coll)
            .ok_or(SystemError::UnknownCollective { coll })?;
        let chunk_state = &cs.per_npu[npu].chunks[chunk as usize];
        let machine = chunk_state
            .machine
            .as_ref()
            .ok_or_else(|| SystemError::Protocol {
                what: format!("endpoint scheduled for chunk {chunk} with no active phase machine"),
            })?;
        let delay =
            endpoint::receive_cost(self.cfg.endpoint_delay, cs.update_per_kb, machine, step);
        self.queue.schedule_in(
            delay,
            SysEvent::EndpointDone {
                npu: npu as u32,
                coll,
                chunk,
                phase,
                step,
            },
        );
        Ok(())
    }

    /// Endpoint processing finished: advance the phase machine.
    fn on_endpoint_done(
        &mut self,
        npu: usize,
        coll: u64,
        chunk: u32,
        phase: u8,
        step: u32,
    ) -> Result<(), SystemError> {
        let faults_active = !self.transport.faults().is_empty();
        let cs = self
            .colls
            .get_mut(&coll)
            .ok_or(SystemError::UnknownCollective { coll })?;
        let chunk_state = &mut cs.per_npu[npu].chunks[chunk as usize];
        debug_assert_eq!(chunk_state.phase, phase, "endpoint for a stale phase");
        let ChunkState {
            machine, deferred, ..
        } = chunk_state;
        let machine = machine.as_mut().ok_or_else(|| SystemError::Protocol {
            what: format!("endpoint done for chunk {chunk} with no active phase machine"),
        })?;
        let mut sends = std::mem::take(&mut self.sends_scratch);
        sends.clear();
        let completed =
            match endpoint::absorb_step(machine, deferred, step, faults_active, &mut sends) {
                Ok(completed) => self
                    .issue_sends(npu, coll, chunk, phase, &sends)
                    .map(|()| completed),
                Err(source) => Err(SystemError::StepRejected {
                    npu: NodeId(npu),
                    coll,
                    chunk,
                    phase,
                    time: self.queue.now(),
                    source,
                }),
            };
        self.sends_scratch = sends;
        if completed? {
            self.on_phase_complete(npu, coll, chunk, phase)?;
        }
        Ok(())
    }

    /// A chunk finished a phase on this NPU: move it to the next phase's
    /// LSQ or retire it.
    fn on_phase_complete(
        &mut self,
        npu: usize,
        coll: u64,
        chunk: u32,
        phase: u8,
    ) -> Result<(), SystemError> {
        let now = self.now();
        if let Some(trace) = &mut self.trace {
            let start = self
                .colls
                .get(&coll)
                .ok_or(SystemError::UnknownCollective { coll })?
                .per_npu[npu]
                .chunks[chunk as usize]
                .entered_phase_at;
            trace.push(PhaseSpan {
                npu: npu as u32,
                coll,
                chunk,
                phase,
                start,
                end: now,
            });
        }
        if phase == 0 {
            self.npus[npu].active_first_phase = self.npus[npu]
                .active_first_phase
                .checked_sub(1)
                .ok_or_else(|| SystemError::Protocol {
                    what: "first-phase accounting underflow".to_string(),
                })?;
        }
        let cs = self
            .colls
            .get_mut(&coll)
            .ok_or(SystemError::UnknownCollective { coll })?;
        let num_phases = cs.plan.phases().len();
        let next = phase as usize + 1;
        if next < num_phases {
            self.enter_phase(npu, coll, chunk, next as u8)?;
        } else {
            let npu_state = &mut cs.per_npu[npu];
            let chunk_state = &mut npu_state.chunks[chunk as usize];
            chunk_state.machine = None;
            chunk_state.done = true;
            debug_assert!(chunk_state.pending.is_empty(), "retired chunk has pending msgs");
            debug_assert!(chunk_state.deferred.is_empty(), "retired chunk has deferred steps");
            npu_state.chunks_done += 1;
            if npu_state.chunks_done as usize == npu_state.chunks.len() {
                let time = now;
                cs.npus_done += 1;
                if cs.npus_done == 1 {
                    cs.report.first_npu_done = time;
                }
                self.notifications.push_back(Notification::CollectiveDone {
                    coll: CollId(coll),
                    npu: NodeId(npu),
                    time,
                });
                if cs.npus_done == cs.per_npu.len() {
                    cs.report.finished_at = time;
                    self.stats.collectives_completed += 1;
                    if let Some(done) = self.colls.remove(&coll) {
                        self.reports.insert(coll, done.report);
                    }
                }
            }
        }
        if phase == 0 {
            self.maybe_dispatch(npu)?;
        }
        Ok(())
    }
}
