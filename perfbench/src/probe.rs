//! The network-layer probe: a [`Backend`] decorator around the real backend.
//!
//! Untraced, it only forwards, and on drop records the simulated work the
//! backend did (a training run consumes its simulator, so this is the one
//! place those counts can be read). Traced, it also times every `send` and
//! `handle` call, counts calls by event kind and the allocations made inside
//! them, and hands the inner backend a counting [`NetScheduler`] that times
//! each push into the system layer's event queue.

use crate::alloc;
use astra_des::Time;
use astra_network::{
    Arrival, Backend, FaultPlan, Message, NetEvent, NetScheduler, NetStats, NetworkError,
};
use astra_topology::Route;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Names of [`NetEvent`] kinds, in [`NetCounters::handles`] order.
pub const EVENT_KINDS: [&str; 4] = ["hop_arrive", "link_ready", "flit_arrive", "credit"];

fn kind_index(event: &NetEvent) -> usize {
    match event {
        NetEvent::HopArrive { .. } => 0,
        NetEvent::LinkReady { .. } => 1,
        NetEvent::FlitArrive { .. } => 2,
        NetEvent::Credit { .. } => 3,
    }
}

/// What the probe saw. The timing fields stay 0 when untraced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// `Backend::send` calls.
    pub sends: u64,
    /// `Backend::handle` calls by event kind ([`EVENT_KINDS`] order).
    pub handles: [u64; 4],
    /// Host ns inside `send` and `handle`, pushes included.
    pub span_ns: u64,
    /// Events the backend pushed into the master queue.
    pub pushes: u64,
    /// Host ns of those pushes.
    pub push_ns: u64,
    /// Heap allocations made inside `send` and `handle`.
    pub allocs: u64,
    /// Σ `LinkStats::traversals` at drop: messages (analytical) or flits
    /// (Garnet) that crossed a link.
    pub traversals: u64,
}

/// Shared handle to a probe's counters; the benchmark keeps one while the
/// simulator owns the probe.
pub type Counters = Rc<RefCell<NetCounters>>;

/// Pass-through to the master queue that counts and times pushes.
struct CountingQueue<'a> {
    inner: &'a mut dyn NetScheduler,
    pushes: u64,
    push_ns: u64,
}

impl NetScheduler for CountingQueue<'_> {
    fn now(&self) -> Time {
        self.inner.now()
    }

    fn schedule_at(&mut self, at: Time, event: NetEvent) {
        let t = Instant::now();
        self.inner.schedule_at(at, event);
        self.push_ns += t.elapsed().as_nanos() as u64;
        self.pushes += 1;
    }
}

/// The decorator handed to `SystemSim::with_backend`.
pub struct Probe {
    inner: Box<dyn Backend>,
    traced: bool,
    counters: Counters,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe")
            .field("traced", &self.traced)
            .field("counters", &self.counters.borrow())
            .finish()
    }
}

impl Probe {
    /// Wraps `inner`; the returned handle reads the counters.
    pub fn new(inner: Box<dyn Backend>, traced: bool) -> (Self, Counters) {
        let counters = Counters::default();
        let probe = Probe {
            inner,
            traced,
            counters: Rc::clone(&counters),
        };
        (probe, counters)
    }

    /// Runs `f` against the inner backend with a counting queue, charging
    /// its time, pushes and allocations to the counters.
    fn timed<R>(
        &mut self,
        queue: &mut dyn NetScheduler,
        f: impl FnOnce(&mut dyn Backend, &mut dyn NetScheduler) -> R,
    ) -> R {
        let allocs = alloc::allocations();
        let t = Instant::now();
        let mut q = CountingQueue {
            inner: queue,
            pushes: 0,
            push_ns: 0,
        };
        let out = f(self.inner.as_mut(), &mut q);
        let span = t.elapsed().as_nanos() as u64;
        let mut c = self.counters.borrow_mut();
        c.span_ns += span;
        c.pushes += q.pushes;
        c.push_ns += q.push_ns;
        c.allocs += alloc::allocations() - allocs;
        out
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.counters.borrow_mut().traversals = total_traversals(self.inner.stats());
    }
}

/// Σ `LinkStats::traversals` over every link.
pub fn total_traversals(stats: &NetStats) -> u64 {
    stats.links.iter().map(|l| l.traversals).sum()
}

impl Backend for Probe {
    fn send(
        &mut self,
        queue: &mut dyn NetScheduler,
        msg: Message,
        route: Route,
    ) -> Result<(), NetworkError> {
        if !self.traced {
            return self.inner.send(queue, msg, route);
        }
        self.counters.borrow_mut().sends += 1;
        self.timed(queue, |net, q| net.send(q, msg, route))
    }

    fn handle(
        &mut self,
        queue: &mut dyn NetScheduler,
        event: NetEvent,
        arrivals: &mut Vec<Arrival>,
    ) {
        if !self.traced {
            return self.inner.handle(queue, event, arrivals);
        }
        self.counters.borrow_mut().handles[kind_index(&event)] += 1;
        self.timed(queue, |net, q| net.handle(q, event, arrivals));
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn install_link_faults(&mut self, plan: &FaultPlan) {
        self.inner.install_link_faults(plan);
    }

    fn audit_quiescent(&self) -> Result<(), String> {
        self.inner.audit_quiescent()
    }
}
