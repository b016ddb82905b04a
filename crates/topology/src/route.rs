//! Rings, channels, links and routes.

use crate::{Dim, NodeId, TopologyError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Link technology class, which selects bandwidth/latency/packet parameters
/// (Table IV distinguishes intra-package from inter-package links).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Intra-package NAM link (~hundreds of GB/s).
    Local,
    /// Inter-package NAP link (~tens of GB/s).
    Package,
    /// Scale-out (inter-pod) link: Ethernet/InfiniBand class, with
    /// transport-protocol overheads folded into latency and efficiency
    /// (§VII future work).
    ScaleOut,
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LinkClass::Local => "local",
            LinkClass::Package => "package",
            LinkClass::ScaleOut => "scale-out",
        })
    }
}

/// A physical channel: one unidirectional ring of a dimension, or one global
/// switch plane. Links on different channels never contend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Channel {
    /// The dimension the channel belongs to.
    pub dim: Dim,
    /// Ring index within the dimension (or switch index for `Dim::Package`).
    pub ring: usize,
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.dim, self.ring)
    }
}

/// One directed physical link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Transmitting endpoint.
    pub from: NodeId,
    /// Receiving endpoint.
    pub to: NodeId,
    /// Channel the link belongs to.
    pub channel: Channel,
    /// Link technology.
    pub class: LinkClass,
}

/// One hop of a route (a directed link reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Hop {
    /// Transmitting endpoint.
    pub from: NodeId,
    /// Receiving endpoint.
    pub to: NodeId,
    /// Channel of the traversed link.
    pub channel: Channel,
}

/// A source-routed path: the ordered hops a message traverses.
///
/// With the paper's software routing, multi-hop sends are store-and-forward
/// relays of the whole message at each intermediate NPU.
///
/// The hops are shared and immutable, so cloning a route (to cache it, park
/// it for a retransmission or hand it to a backend) bumps a reference count
/// instead of copying the hop list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    hops: Arc<[Hop]>,
}

impl Route {
    /// Builds a route from hops.
    ///
    /// # Panics
    ///
    /// Panics (debug) if hops are not contiguous (`hop[i].to != hop[i+1].from`)
    /// or empty.
    pub fn new(hops: Vec<Hop>) -> Self {
        debug_assert!(!hops.is_empty(), "route must have at least one hop");
        debug_assert!(
            hops.windows(2).all(|w| w[0].to == w[1].from),
            "route hops must be contiguous"
        );
        Route { hops: hops.into() }
    }

    /// The hops in traversal order.
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// Originating node.
    pub fn src(&self) -> NodeId {
        self.hops.first().expect("route is non-empty").from
    }

    /// Final destination.
    pub fn dst(&self) -> NodeId {
        self.hops.last().expect("route is non-empty").to
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the route is empty (never true for a validly constructed route).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }
}

/// An ordered unidirectional ring of NPUs within one dimension.
///
/// `members[i]` sends to `members[(i + 1) % size]` on this ring's links.
/// Bidirectional inter-package rings are represented as two `Ring`s with
/// opposite orders sharing a dimension (even ring index = forward, odd =
/// reverse), as in §III-C: "each bidirectional ring is divided into two
/// unidirectional rings".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ring {
    channel: Channel,
    members: Vec<NodeId>,
}

impl Ring {
    /// Creates a ring over `members` (in send order) on `channel`.
    ///
    /// # Errors
    ///
    /// Fails if fewer than 2 members.
    pub fn new(channel: Channel, members: Vec<NodeId>) -> Result<Self, TopologyError> {
        if members.len() < 2 {
            return Err(TopologyError::DegenerateRing {
                size: members.len(),
            });
        }
        Ok(Ring { channel, members })
    }

    /// The channel whose links this ring uses.
    pub fn channel(&self) -> Channel {
        self.channel
    }

    /// Members in send order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Ring size.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Position of `node` on the ring.
    ///
    /// # Errors
    ///
    /// Fails if `node` is not a member.
    pub fn position(&self, node: NodeId) -> Result<usize, TopologyError> {
        self.members
            .iter()
            .position(|&m| m == node)
            .ok_or(TopologyError::NotOnRing { node })
    }

    /// The node `steps` positions ahead of `node` (wrapping).
    ///
    /// # Errors
    ///
    /// Fails if `node` is not a member.
    pub fn ahead(&self, node: NodeId, steps: usize) -> Result<NodeId, TopologyError> {
        let pos = self.position(node)?;
        Ok(self.members[(pos + steps) % self.size()])
    }

    /// Downstream neighbor (distance 1).
    pub fn next(&self, node: NodeId) -> Result<NodeId, TopologyError> {
        self.ahead(node, 1)
    }

    /// Upstream neighbor (the node that sends to `node`).
    pub fn prev(&self, node: NodeId) -> Result<NodeId, TopologyError> {
        self.ahead(node, self.size() - 1)
    }

    /// The `steps`-hop route from `src` along the ring direction.
    ///
    /// # Errors
    ///
    /// Fails if `src` is not on the ring or `steps` is not in
    /// `1..ring size`.
    pub fn route_from(&self, src: NodeId, steps: usize) -> Result<Route, TopologyError> {
        if steps == 0 || steps >= self.size() {
            return Err(TopologyError::BadDistance {
                steps,
                ring_size: self.size(),
            });
        }
        let start = self.position(src)?;
        let hops = (0..steps)
            .map(|i| Hop {
                from: self.members[(start + i) % self.size()],
                to: self.members[(start + i + 1) % self.size()],
                channel: self.channel,
            })
            .collect();
        Ok(Route::new(hops))
    }

    /// Enumerates this ring's links as [`LinkSpec`]s.
    pub fn links(&self, class: LinkClass) -> Vec<LinkSpec> {
        (0..self.size())
            .map(|i| LinkSpec {
                from: self.members[i],
                to: self.members[(i + 1) % self.size()],
                channel: self.channel,
                class,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring4() -> Ring {
        Ring::new(
            Channel {
                dim: Dim::Local,
                ring: 0,
            },
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        )
        .unwrap()
    }

    #[test]
    fn neighbors_wrap() {
        let r = ring4();
        assert_eq!(r.next(NodeId(3)).unwrap(), NodeId(0));
        assert_eq!(r.prev(NodeId(0)).unwrap(), NodeId(3));
        assert_eq!(r.ahead(NodeId(1), 2).unwrap(), NodeId(3));
    }

    #[test]
    fn route_follows_ring_direction() {
        let r = ring4();
        let route = r.route_from(NodeId(2), 3).unwrap();
        assert_eq!(route.src(), NodeId(2));
        assert_eq!(route.dst(), NodeId(1));
        assert_eq!(route.len(), 3);
        assert_eq!(route.hops()[0].to, NodeId(3));
        assert_eq!(route.hops()[1].to, NodeId(0));
    }

    #[test]
    fn clones_share_the_hop_list() {
        let route = ring4().route_from(NodeId(0), 2).unwrap();
        let copy = route.clone();
        assert!(Arc::ptr_eq(&route.hops, &copy.hops));
        assert_eq!(copy, route);
    }

    #[test]
    fn bad_distances_rejected() {
        let r = ring4();
        assert!(r.route_from(NodeId(0), 0).is_err());
        assert!(r.route_from(NodeId(0), 4).is_err());
    }

    #[test]
    fn non_member_rejected() {
        let r = ring4();
        assert!(matches!(
            r.position(NodeId(9)),
            Err(TopologyError::NotOnRing { .. })
        ));
    }

    #[test]
    fn degenerate_ring_rejected() {
        let c = Channel {
            dim: Dim::Local,
            ring: 0,
        };
        assert!(Ring::new(c, vec![NodeId(0)]).is_err());
    }

    #[test]
    fn links_cover_all_members() {
        let r = ring4();
        let links = r.links(LinkClass::Local);
        assert_eq!(links.len(), 4);
        // Every node appears exactly once as a source.
        let mut sources: Vec<_> = links.iter().map(|l| l.from.index()).collect();
        sources.sort_unstable();
        assert_eq!(sources, vec![0, 1, 2, 3]);
    }
}
