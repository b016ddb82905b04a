//! Route synthesis and message injection: resolving a phase machine's
//! relative send targets into source routes, the logical→physical overlay
//! (§IV-B: "map a single logical topology on different physical
//! topologies"), paced bursts, and the final injection gate in front of
//! the network backend.
//!
//! Synthesized routes are cached per [`RouteKey`]: a route is a pure
//! function of the target, the phase's dimension and ring options, the
//! channel and the sending NPU, so each one is built once and every later
//! send clones the shared hop list. Only the time-dependent reroute around
//! down links (`Transport::maybe_reroute`) runs per send.
//!
//! This is the send half of the staged system layer; the receive half
//! lives in `endpoint`. Both are sequenced by the event loop in `sim`.

use crate::sim::{NetQ, SysEvent, SystemSim};
use crate::{BackendKind, InjectionPolicy, SystemConfig, SystemError, Tag};
use astra_collectives::{PhaseSpec, SendCmd, Target};
use astra_des::Time;
use astra_network::{Message, NetworkConfig};
use astra_topology::{Dim, LogicalTopology, Mapping, NodeId, PathFinder, Route};
use std::fmt;

/// Everything a synthesized route depends on; the key of the route cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RouteKey {
    target: Target,
    dim: Dim,
    channel: usize,
    on_rings: bool,
    npu: usize,
}

/// Logical→physical overlay state (§IV-B: "map a single logical topology
/// on different physical topologies").
pub(crate) struct Overlay {
    pub(crate) mapping: Mapping,
    /// physical NPU id -> logical NPU id.
    pub(crate) inverse: Vec<usize>,
    pub(crate) finder: PathFinder,
    /// The physical fabric itself, kept for rebuilding exclusion routers
    /// when links go down mid-run.
    pub(crate) physical: LogicalTopology,
}

impl fmt::Debug for Overlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Overlay")
            .field("nodes", &self.inverse.len())
            .finish()
    }
}

impl SystemSim {
    /// Builds a simulator whose *logical* topology (used for collective
    /// synthesis and scheduling) differs from the *physical* fabric the
    /// messages actually traverse — the paper's §IV-B flexibility: "map a
    /// 3D logical topology on a 1D or 2D physical torus". `mapping`
    /// permutes logical NPU ids onto physical NPU ids; logical
    /// neighbor-sends become shortest-path physical routes.
    ///
    /// # Errors
    ///
    /// Fails if the mapping does not cover exactly the NPUs of both
    /// topologies.
    pub fn with_overlay(
        logical: LogicalTopology,
        physical: &LogicalTopology,
        mapping: Mapping,
        cfg: SystemConfig,
        net_cfg: &NetworkConfig,
        backend: BackendKind,
    ) -> Result<Self, SystemError> {
        if mapping.len() != logical.num_npus() || logical.num_npus() != physical.num_npus() {
            return Err(SystemError::InvalidOverlay {
                what: format!(
                    "mapping covers {} nodes, logical has {}, physical has {}",
                    mapping.len(),
                    logical.num_npus(),
                    physical.num_npus()
                ),
            });
        }
        let net = backend.build(physical, net_cfg);
        let mut inverse = vec![usize::MAX; physical.num_npus()];
        for l in 0..logical.num_npus() {
            inverse[mapping.apply(NodeId(l)).index()] = l;
        }
        let finder = PathFinder::new(physical);
        let mut sim = Self::with_backend(logical, cfg, net_cfg, net);
        sim.overlay = Some(Overlay {
            mapping,
            inverse,
            finder,
            physical: physical.clone(),
        });
        Ok(sim)
    }

    /// The final route — after the overlay, before any reroute — of
    /// `npu`'s send to `target` on channel `channel` of phase `spec`,
    /// from the cache or synthesized (and cached) on first use.
    pub(crate) fn route_for(
        &mut self,
        npu: usize,
        spec: &PhaseSpec,
        channel: usize,
        target: Target,
    ) -> Result<Route, SystemError> {
        let key = RouteKey {
            target,
            dim: spec.dim,
            channel,
            on_rings: spec.on_rings,
            npu,
        };
        if let Some(route) = self.routes.get(&key) {
            return Ok(route.clone());
        }
        let route = self.synthesize_route(&key)?;
        self.routes.insert(key, route.clone());
        Ok(route)
    }

    /// Builds the route `key` names: the logical route on `self.topo`,
    /// then, under an overlay, the shortest physical path to the mapped
    /// destination (spread over parallel links by channel).
    fn synthesize_route(&mut self, key: &RouteKey) -> Result<Route, SystemError> {
        let RouteKey {
            target,
            dim,
            channel,
            on_rings,
            npu,
        } = *key;
        let me = NodeId(npu);
        let route = match target {
            Target::RingNext => self.topo.ring_route(dim, channel, me, 1)?,
            Target::RingDistance(d) => self.topo.ring_route(dim, channel, me, d)?,
            Target::GroupOffset(off) => {
                let group = self.topo.ring(dim, channel, me)?;
                let dst = group.ahead(me, off)?;
                self.topo.switch_route(me, dst, channel)?
            }
            Target::GroupXor(mask) => {
                let group = self.topo.ring(dim, channel, me)?;
                let pos = group.position(me)?;
                let partner = group.members()[pos ^ mask];
                if on_rings {
                    // Software-routed along the ring direction.
                    let dist = ((pos ^ mask) + group.size() - pos) % group.size();
                    self.topo.ring_route(dim, channel, me, dist)?
                } else {
                    self.topo.switch_route(me, partner, channel)?
                }
            }
        };
        // Under an overlay, the logical route only determines the
        // destination; the message physically travels a shortest path on
        // the real fabric.
        match &mut self.overlay {
            None => Ok(route),
            Some(o) => {
                let psrc = o.mapping.apply(me);
                let pdst = o.mapping.apply(route.dst());
                Ok(o.finder.route(psrc, pdst, channel)?)
            }
        }
    }

    /// Resolves and injects a batch of sends from a phase machine.
    ///
    /// Every route is resolved before any message is injected, so a
    /// synthesis error injects nothing.
    pub(crate) fn issue_sends(
        &mut self,
        npu: usize,
        coll: u64,
        chunk: u32,
        phase: u8,
        sends: &[SendCmd],
    ) -> Result<(), SystemError> {
        if sends.is_empty() {
            return Ok(());
        }
        let cs = self
            .colls
            .get(&coll)
            .ok_or(SystemError::UnknownCollective { coll })?;
        let spec = cs.plan.phases()[phase as usize];
        let channel = chunk as usize % spec.concurrency.max(1);
        for s in sends {
            self.route_for(npu, &spec, channel, s.target)?;
        }
        // Under the `normal` injection policy, bursts are paced: each
        // subsequent message waits one first-link serialization time.
        let gap = if self.cfg.injection == InjectionPolicy::Normal && sends.len() > 1 {
            let params = self.net_cfg.link(spec.class);
            let wire = params.wire_bytes(sends[0].bytes);
            self.net_cfg.clock.serialization_time(wire, params.gbps)
        } else {
            Time::ZERO
        };
        for (k, s) in sends.iter().enumerate() {
            let route = self.route_for(npu, &spec, channel, s.target)?;
            let tag = Tag {
                coll,
                chunk,
                phase,
                step: s.step,
            }
            .pack();
            let msg = Message::new(self.next_msg, route.src(), route.dst(), s.bytes, tag);
            self.next_msg += 1;
            let delay = gap.scale(k as u64, 1);
            if delay == Time::ZERO {
                self.send_now(msg, route, 0)?;
            } else {
                let key = self.transport.park(msg, route, 0);
                self.queue.schedule_in(delay, SysEvent::Inject(key));
            }
        }
        Ok(())
    }

    /// Final injection gate: reroutes around hard-down links and applies
    /// lossy scale-out transport before handing the message to the backend.
    /// `attempt` counts prior transmissions of this payload (0 = original).
    pub(crate) fn send_now(
        &mut self,
        msg: Message,
        route: Route,
        attempt: u32,
    ) -> Result<(), SystemError> {
        let now = self.queue.now();
        let spray = Tag::unpack(msg.tag).chunk as usize;
        let physical = match &self.overlay {
            Some(o) => &o.physical,
            None => &self.topo,
        };
        let route = self
            .transport
            .maybe_reroute(route, spray, now, physical, &mut self.stats)?;
        if let Some(r) =
            self.transport
                .loss_gate(&msg, &route, attempt, &mut self.next_msg, &mut self.stats)?
        {
            let key = self.transport.park(r.retry, route.clone(), r.attempt);
            self.queue.schedule_in(r.backoff, SysEvent::Retransmit(key));
        }
        self.net.send(&mut NetQ(&mut self.queue), msg, route)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_collectives::{plan, Algorithm, CollectiveOp};
    use astra_topology::{HierAllToAll, Torus3d};

    fn sim(topo: LogicalTopology) -> SystemSim {
        SystemSim::new(
            topo,
            SystemConfig::default(),
            &NetworkConfig::default(),
            BackendKind::Analytical,
        )
    }

    fn phases(topo: &LogicalTopology, op: CollectiveOp) -> Vec<PhaseSpec> {
        plan(topo, op, Algorithm::Baseline, None)
            .unwrap()
            .phases()
            .to_vec()
    }

    /// `route_for` equals `fresh` on the miss that fills the cache and on
    /// the hit that reads it back.
    fn check(
        sim: &mut SystemSim,
        npu: usize,
        spec: &PhaseSpec,
        ch: usize,
        t: Target,
        fresh: Route,
    ) {
        for pass in ["miss", "hit"] {
            let cached = sim.route_for(npu, spec, ch, t).unwrap();
            assert_eq!(
                cached, fresh,
                "{pass}: npu {npu} {t:?} on {:?}#{ch}",
                spec.dim
            );
        }
    }

    #[test]
    fn cached_ring_routes_equal_fresh_ones() {
        let topo = LogicalTopology::torus(Torus3d::new(2, 4, 4, 2, 2, 2).unwrap());
        let mut s = sim(topo.clone());
        let mut keys = 0;
        for spec in phases(&topo, CollectiveOp::AllReduce) {
            assert!(spec.on_rings);
            for ch in 0..spec.concurrency {
                for npu in 0..topo.num_npus() {
                    let me = NodeId(npu);
                    let ring = topo.ring(spec.dim, ch, me).unwrap();
                    let pos = ring.position(me).unwrap();
                    let n = ring.size();
                    check(
                        &mut s,
                        npu,
                        &spec,
                        ch,
                        Target::RingNext,
                        ring.route_from(me, 1).unwrap(),
                    );
                    keys += 1;
                    for d in 1..n {
                        let fresh = topo.ring_route(spec.dim, ch, me, d).unwrap();
                        check(&mut s, npu, &spec, ch, Target::RingDistance(d), fresh);
                        keys += 1;
                    }
                    // Halving-doubling partners, software-routed along the ring.
                    let mut mask = 1;
                    while mask < n {
                        let fresh = ring.route_from(me, ((pos ^ mask) + n - pos) % n).unwrap();
                        check(&mut s, npu, &spec, ch, Target::GroupXor(mask), fresh);
                        keys += 1;
                        mask <<= 1;
                    }
                }
            }
        }
        assert_eq!(s.routes.len(), keys, "one cache entry per distinct key");
    }

    #[test]
    fn cached_switch_routes_equal_fresh_ones() {
        let topo = LogicalTopology::alltoall(HierAllToAll::new(2, 4, 2, 3).unwrap());
        let mut s = sim(topo.clone());
        let spec = phases(&topo, CollectiveOp::AllToAll)
            .into_iter()
            .find(|p| p.dim == Dim::Package)
            .expect("alltoall plans a package phase");
        let switched = PhaseSpec {
            on_rings: false,
            ..spec
        };
        for ch in 0..spec.concurrency {
            for npu in 0..topo.num_npus() {
                let me = NodeId(npu);
                let group = topo.ring(spec.dim, ch, me).unwrap();
                let pos = group.position(me).unwrap();
                for off in 1..group.size() {
                    let dst = group.ahead(me, off).unwrap();
                    let fresh = topo.switch_route(me, dst, ch).unwrap();
                    check(&mut s, npu, &spec, ch, Target::GroupOffset(off), fresh);
                }
                let mut mask = 1;
                while mask < group.size() {
                    let partner = group.members()[pos ^ mask];
                    let fresh = topo.switch_route(me, partner, ch).unwrap();
                    check(&mut s, npu, &switched, ch, Target::GroupXor(mask), fresh);
                    mask <<= 1;
                }
            }
        }
    }

    #[test]
    fn ring_options_are_part_of_the_key() {
        let topo = LogicalTopology::torus(Torus3d::new(1, 4, 1, 1, 1, 1).unwrap());
        let mut s = sim(topo.clone());
        let spec = phases(&topo, CollectiveOp::AllReduce)[0];
        let off_rings = PhaseSpec {
            on_rings: false,
            ..spec
        };
        let on = s.route_for(0, &spec, 0, Target::GroupXor(2)).unwrap();
        assert_eq!(on.len(), 2, "software-routed two hops along the ring");
        // Off the rings a torus has no switch to route through; the cached
        // ring route must not be served for it.
        assert!(s.route_for(0, &off_rings, 0, Target::GroupXor(2)).is_err());
    }

    #[test]
    fn synthesis_errors_are_not_cached() {
        let topo = LogicalTopology::torus(Torus3d::new(1, 4, 1, 1, 1, 1).unwrap());
        let mut s = sim(topo.clone());
        let spec = phases(&topo, CollectiveOp::AllReduce)[0];
        for _ in 0..2 {
            assert!(s.route_for(0, &spec, 0, Target::RingDistance(4)).is_err());
        }
        assert!(s.routes.is_empty());
    }

    #[test]
    fn cached_overlay_routes_equal_fresh_physical_paths() {
        // A 2x4 logical torus laid onto an 8-ring with a shuffled mapping.
        let logical = LogicalTopology::torus(Torus3d::new(2, 4, 1, 1, 1, 1).unwrap());
        let physical = LogicalTopology::torus(Torus3d::new(1, 8, 1, 1, 2, 1).unwrap());
        let perm = vec![3, 0, 6, 1, 7, 2, 5, 4];
        let mapping = Mapping::from_permutation(perm).unwrap();
        let mut s = SystemSim::with_overlay(
            logical.clone(),
            &physical,
            mapping.clone(),
            SystemConfig::default(),
            &NetworkConfig::default(),
            BackendKind::Analytical,
        )
        .unwrap();
        let mut finder = PathFinder::new(&physical);
        for spec in phases(&logical, CollectiveOp::AllReduce) {
            for ch in 0..spec.concurrency {
                for npu in 0..logical.num_npus() {
                    let me = NodeId(npu);
                    let dst = logical.ring_route(spec.dim, ch, me, 1).unwrap().dst();
                    let fresh = finder
                        .route(mapping.apply(me), mapping.apply(dst), ch)
                        .unwrap();
                    check(&mut s, npu, &spec, ch, Target::RingNext, fresh);
                }
            }
        }
    }
}
