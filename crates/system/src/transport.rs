//! Transport-layer fault machinery: lossy scale-out links, retransmission
//! with exponential backoff, and rerouting around hard-down links.
//!
//! All state that decides a message's fate between "the system layer wants
//! it sent" and "the backend carries it" lives here: the installed
//! [`FaultPlan`], the seeded loss RNG, the doomed-message set, the cached
//! exclusion pathfinder, and the slab arena of in-flight payloads whose
//! `u32` keys the event loop carries instead of boxed `(Message, Route)`
//! pairs (see `astra_des::Slab`).

use crate::{SystemError, SystemStats};
use astra_des::rng::SplitMix64;
use astra_des::{IdSet, Slab, SlabKey, Time};
use astra_network::{FaultPlan, Message, MsgId};
use astra_topology::{Dim, LogicalTopology, NodeId, PathFinder, Route};

/// A message waiting in the arena for a deferred injection (paced bursts)
/// or a retransmission timer.
#[derive(Debug)]
pub(crate) struct PendingSend {
    pub(crate) msg: Message,
    pub(crate) route: Route,
    /// Prior transmissions of this payload (0 = paced original).
    pub(crate) attempt: u32,
}

/// A retransmission decision from [`Transport::loss_gate`]: the replacement
/// message, the backed-off delay, and its attempt counter.
#[derive(Debug)]
pub(crate) struct Retransmission {
    pub(crate) retry: Message,
    pub(crate) backoff: Time,
    pub(crate) attempt: u32,
}

/// The lossy-transport state machine. Inert until a non-empty plan is
/// installed: with no loss spec and no link faults every method is a cheap
/// pass-through, so fault-free simulations pay (almost) nothing.
#[derive(Debug)]
pub(crate) struct Transport {
    /// Installed fault plan (empty by default, which disables every fault
    /// code path below).
    faults: FaultPlan,
    /// Seeded RNG for loss decisions; reseeded from the plan on install.
    loss_rng: SplitMix64,
    /// Messages injected but destined to drop: their arrival is discarded.
    doomed: IdSet<MsgId>,
    /// Exclusion pathfinder cached for the current set of down links.
    reroute_cache: Option<(Vec<(NodeId, NodeId)>, PathFinder)>,
    /// In-flight payloads of deferred injections and retransmissions,
    /// keyed by the `u32` the event queue carries.
    pending: Slab<PendingSend>,
}

impl Transport {
    pub(crate) fn new() -> Self {
        Transport {
            faults: FaultPlan::default(),
            loss_rng: SplitMix64::new(0),
            doomed: IdSet::default(),
            reroute_cache: None,
            pending: Slab::new(),
        }
    }

    /// Arms the loss/reroute machinery from a validated plan. All loss
    /// randomness derives from the plan's seed, so a `(seed, plan)` pair
    /// replays cycle-identically.
    pub(crate) fn install(&mut self, plan: &FaultPlan) {
        self.faults = plan.clone();
        self.loss_rng = SplitMix64::new(plan.seed);
        self.reroute_cache = None;
    }

    pub(crate) fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Parks a payload in the arena; the returned key rides in the event.
    pub(crate) fn park(&mut self, msg: Message, route: Route, attempt: u32) -> SlabKey {
        self.pending.insert(PendingSend { msg, route, attempt })
    }

    /// Claims a parked payload back when its event fires.
    pub(crate) fn claim(&mut self, key: SlabKey) -> Result<PendingSend, SystemError> {
        self.pending.remove(key).ok_or_else(|| SystemError::Protocol {
            what: format!("no parked send under arena key {}", key.index()),
        })
    }

    /// Whether the parked-send arena is empty (every parked payload was
    /// claimed back); part of the quiescence audit.
    pub(crate) fn arena_is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of parked payloads still in the arena.
    pub(crate) fn arena_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether `id` was dropped in transit; consumes the doomed marker.
    /// (The wire bandwidth was spent either way — only the payload is
    /// discarded on arrival.)
    pub(crate) fn consume_doomed(&mut self, id: &MsgId) -> bool {
        // No loss plan, or nothing lost in flight: skip hashing the id.
        if self.doomed.is_empty() {
            return false;
        }
        self.doomed.remove(id)
    }

    /// If the route crosses a link that is hard-down at `now`, recompute a
    /// physical path around the outage on `physical` (counted in
    /// [`SystemStats::reroutes`]); routes on a healthy fabric pass through
    /// untouched.
    pub(crate) fn maybe_reroute(
        &mut self,
        route: Route,
        spray: usize,
        now: Time,
        physical: &LogicalTopology,
        stats: &mut SystemStats,
    ) -> Result<Route, SystemError> {
        if self.faults.link_faults.is_empty() {
            return Ok(route);
        }
        let down = self.faults.down_pairs_at(now);
        if down.is_empty() || !route.hops().iter().any(|h| down.contains(&(h.from, h.to))) {
            return Ok(route);
        }
        let stale = match &self.reroute_cache {
            Some((built_for, _)) => *built_for != down,
            None => true,
        };
        if stale {
            let finder = PathFinder::new_excluding(physical, &down);
            self.reroute_cache = Some((down, finder));
        }
        let Some((_, finder)) = self.reroute_cache.as_mut() else {
            // infallible: the cache was filled in the branch above.
            unreachable!("reroute cache filled above");
        };
        let rerouted = finder.route(route.src(), route.dst(), spray)?;
        stats.reroutes += 1;
        Ok(rerouted)
    }

    /// The lossy scale-out gate: decides whether this transmission of
    /// `msg` corrupts in transit. On a drop the message is doomed (its
    /// arrival will be discarded), and a fresh copy — numbered from
    /// `next_msg` — must go out after an exponentially backed-off timeout.
    ///
    /// # Errors
    ///
    /// [`SystemError::RetriesExhausted`] when the drop exceeds the plan's
    /// retry budget.
    pub(crate) fn loss_gate(
        &mut self,
        msg: &Message,
        route: &Route,
        attempt: u32,
        next_msg: &mut u64,
        stats: &mut SystemStats,
    ) -> Result<Option<Retransmission>, SystemError> {
        let Some(loss) = self.faults.loss else {
            return Ok(None);
        };
        let crosses_scale_out = route.hops().iter().any(|h| h.channel.dim == Dim::ScaleOut);
        if !crosses_scale_out || self.loss_rng.next_f64() >= loss.drop_rate {
            return Ok(None);
        }
        // The frame corrupts in transit: it still occupies the wire
        // end-to-end, but the payload is discarded on arrival and a
        // fresh copy goes out after a backed-off timeout.
        stats.drops += 1;
        if attempt >= loss.max_retries {
            return Err(SystemError::RetriesExhausted {
                from: msg.src,
                to: msg.dst,
                attempts: attempt + 1,
            });
        }
        self.doomed.insert(msg.id);
        let retry = Message::new(*next_msg, msg.src, msg.dst, msg.bytes, msg.tag);
        *next_msg += 1;
        stats.retransmits += 1;
        let backoff = loss.timeout.scale(1u64 << attempt.min(31), 1);
        Ok(Some(Retransmission {
            retry,
            backoff,
            attempt: attempt + 1,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_network::{FaultKind, LinkFault, LossSpec};
    use astra_topology::{PodFabric, Torus3d};

    fn ring4() -> LogicalTopology {
        LogicalTopology::torus(Torus3d::new(1, 4, 1, 1, 1, 1).unwrap())
    }

    fn intra_route(topo: &LogicalTopology) -> Route {
        topo.ring_route(Dim::Horizontal, 0, NodeId(0), 1).unwrap()
    }

    #[test]
    fn park_and_claim_roundtrip_through_the_arena() {
        let topo = ring4();
        let mut t = Transport::new();
        let msg = Message::new(0, NodeId(0), NodeId(1), 512, 0);
        let key = t.park(msg, intra_route(&topo), 2);
        let p = t.claim(key).unwrap();
        assert_eq!(p.msg.bytes, 512);
        assert_eq!(p.attempt, 2);
        // Under conform-checks a double-claim panics in the slab instead of
        // surfacing the typed protocol error.
        #[cfg(not(feature = "conform-checks"))]
        assert!(matches!(t.claim(key), Err(SystemError::Protocol { .. })));
    }

    #[test]
    fn loss_gate_ignores_intra_pod_routes() {
        let topo = ring4();
        let mut t = Transport::new();
        t.install(&FaultPlan {
            seed: 1,
            loss: Some(LossSpec {
                drop_rate: 1.0,
                timeout: Time::from_cycles(100),
                max_retries: 3,
            }),
            ..FaultPlan::default()
        });
        let msg = Message::new(0, NodeId(0), NodeId(1), 512, 0);
        let mut next = 1;
        let mut stats = SystemStats::default();
        let out = t
            .loss_gate(&msg, &intra_route(&topo), 0, &mut next, &mut stats)
            .unwrap();
        assert!(out.is_none(), "no scale-out hop, no loss");
        assert_eq!(stats.drops, 0);
    }

    fn scale_out_plumbing() -> (LogicalTopology, Route) {
        let fabric = PodFabric::new(Torus3d::new(1, 2, 1, 1, 1, 1).unwrap(), 2, 1).unwrap();
        let topo = LogicalTopology::pods(fabric);
        let route = topo.ring_route(Dim::ScaleOut, 0, NodeId(0), 1).unwrap();
        assert!(route.hops().iter().any(|h| h.channel.dim == Dim::ScaleOut));
        (topo, route)
    }

    fn lossy(drop_rate: f64, max_retries: u32) -> Transport {
        let mut t = Transport::new();
        t.install(&FaultPlan {
            seed: 7,
            loss: Some(LossSpec {
                drop_rate,
                timeout: Time::from_cycles(100),
                max_retries,
            }),
            ..FaultPlan::default()
        });
        t
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let (_, route) = scale_out_plumbing();
        let mut t = lossy(1.0, 64);
        let msg = Message::new(0, NodeId(0), NodeId(2), 512, 0);
        let mut next = 1;
        let mut stats = SystemStats::default();
        for attempt in 0..4 {
            let r = t
                .loss_gate(&msg, &route, attempt, &mut next, &mut stats)
                .unwrap()
                .expect("drop_rate 1.0 always drops");
            assert_eq!(r.backoff, Time::from_cycles(100 << attempt));
            assert_eq!(r.attempt, attempt + 1);
        }
        assert_eq!(stats.drops, 4);
        assert_eq!(stats.retransmits, 4);
    }

    #[test]
    fn backoff_shift_saturates_at_attempt_31() {
        let (_, route) = scale_out_plumbing();
        let mut t = lossy(1.0, u32::MAX);
        let msg = Message::new(0, NodeId(0), NodeId(2), 512, 0);
        let mut next = 1;
        let mut stats = SystemStats::default();
        // Attempts beyond 31 must not overflow the shift: the backoff
        // plateaus at timeout * 2^31 instead.
        let r40 = t
            .loss_gate(&msg, &route, 40, &mut next, &mut stats)
            .unwrap()
            .unwrap();
        let r31 = t
            .loss_gate(&msg, &route, 31, &mut next, &mut stats)
            .unwrap()
            .unwrap();
        assert_eq!(r40.backoff, r31.backoff);
        assert_eq!(r31.backoff, Time::from_cycles(100 << 31));
    }

    #[test]
    fn exhausted_retry_budget_is_a_typed_error() {
        let (_, route) = scale_out_plumbing();
        let mut t = lossy(1.0, 3);
        let msg = Message::new(9, NodeId(0), NodeId(2), 512, 0);
        let mut next = 10;
        let mut stats = SystemStats::default();
        match t.loss_gate(&msg, &route, 3, &mut next, &mut stats) {
            Err(SystemError::RetriesExhausted { from, to, attempts }) => {
                assert_eq!(from, NodeId(0));
                assert_eq!(to, NodeId(2));
                assert_eq!(attempts, 4);
            }
            other => panic!("want RetriesExhausted, got {other:?}"),
        }
        // The terminal drop is still counted, but nothing retransmits and
        // no doomed marker leaks for a message that will never arrive.
        assert_eq!(stats.drops, 1);
        assert_eq!(stats.retransmits, 0);
        assert_eq!(next, 10, "no fresh message id consumed");
    }

    #[test]
    fn retransmissions_carry_fresh_ids_and_doom_the_original() {
        let (_, route) = scale_out_plumbing();
        let mut t = lossy(1.0, 8);
        let msg = Message::new(5, NodeId(0), NodeId(2), 256, 3);
        let mut next = 6;
        let mut stats = SystemStats::default();
        let r = t
            .loss_gate(&msg, &route, 0, &mut next, &mut stats)
            .unwrap()
            .unwrap();
        assert_eq!(r.retry.id, MsgId(6));
        assert_eq!(next, 7);
        assert_eq!((r.retry.src, r.retry.dst), (msg.src, msg.dst));
        assert_eq!((r.retry.bytes, r.retry.tag), (msg.bytes, msg.tag));
        assert!(t.consume_doomed(&msg.id), "original must be doomed");
        assert!(!t.consume_doomed(&msg.id), "doomed marker is consumed once");
    }

    #[test]
    fn parked_sends_drain_through_reroute() {
        // A down link forces the claimed sends through the reroute path;
        // the arena must drain to empty either way (quiescence audit).
        let topo = ring4();
        let mut t = Transport::new();
        t.install(&FaultPlan {
            seed: 1,
            link_faults: vec![LinkFault {
                from: NodeId(0),
                to: NodeId(1),
                kind: FaultKind::Down,
                start: Time::ZERO,
                end: Time::from_cycles(1_000),
            }],
            ..FaultPlan::default()
        });
        let mut keys = Vec::new();
        for i in 0..3u64 {
            let msg = Message::new(i, NodeId(0), NodeId(1), 128, 0);
            keys.push(t.park(msg, intra_route(&topo), 0));
        }
        assert_eq!(t.arena_len(), 3);
        let mut stats = SystemStats::default();
        for key in keys {
            let p = t.claim(key).unwrap();
            let rerouted = t
                .maybe_reroute(p.route, 0, Time::from_cycles(500), &topo, &mut stats)
                .unwrap();
            assert!(
                !rerouted
                    .hops()
                    .iter()
                    .any(|h| (h.from, h.to) == (NodeId(0), NodeId(1))),
                "rerouted path still crosses the down link"
            );
        }
        assert!(t.arena_is_empty(), "claimed sends must drain the arena");
        assert_eq!(stats.reroutes, 3);
    }

    #[test]
    fn healthy_fabric_routes_pass_through_unrerouted() {
        let topo = ring4();
        let mut t = Transport::new();
        let route = intra_route(&topo);
        let mut stats = SystemStats::default();
        let out = t
            .maybe_reroute(route.clone(), 0, Time::ZERO, &topo, &mut stats)
            .unwrap();
        assert_eq!(out, route);
        assert_eq!(stats.reroutes, 0);
    }
}
