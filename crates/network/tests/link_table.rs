//! `LinkTable` equivalence: dense indices follow the first occurrence of
//! each `(from, to, channel)` in `LogicalTopology::links`, every listed
//! link resolves to its index, and hops the fabric does not have are
//! rejected with `UnknownLink`.

use astra_network::{AnalyticalNet, GarnetNet, LinkTable, NetworkConfig, NetworkError};
use astra_topology::{
    Channel, Dim, HierAllToAll, Hop, LinkSpec, LogicalTopology, NodeId, PodFabric, Torus3d,
};

/// The reference index: a linear scan for the first spec with the same
/// `(from, to, channel)`, numbering distinct links in order of appearance.
fn first_occurrence(links: &[LinkSpec]) -> (Vec<LinkSpec>, Vec<usize>) {
    let mut distinct: Vec<LinkSpec> = Vec::new();
    let mut index_of = Vec::with_capacity(links.len());
    for l in links {
        let found = distinct
            .iter()
            .position(|d| d.from == l.from && d.to == l.to && d.channel == l.channel);
        index_of.push(found.unwrap_or_else(|| {
            distinct.push(*l);
            distinct.len() - 1
        }));
    }
    (distinct, index_of)
}

fn hop(l: &LinkSpec) -> Hop {
    Hop {
        from: l.from,
        to: l.to,
        channel: l.channel,
    }
}

fn fabrics() -> Vec<(&'static str, LogicalTopology)> {
    vec![
        (
            "1x8x1 torus",
            LogicalTopology::torus(Torus3d::new(1, 8, 1, 2, 2, 2).unwrap()),
        ),
        (
            "2x8x4 torus",
            LogicalTopology::torus(Torus3d::new(2, 8, 4, 2, 2, 2).unwrap()),
        ),
        // Every dimension a 2-member ring.
        (
            "2x2x2 torus",
            LogicalTopology::torus(Torus3d::new(2, 2, 2, 2, 2, 2).unwrap()),
        ),
        (
            "4x4x4 torus",
            LogicalTopology::torus(Torus3d::new(4, 4, 4, 2, 2, 2).unwrap()),
        ),
        (
            "1x8 alltoall",
            LogicalTopology::alltoall(HierAllToAll::new(1, 8, 1, 7).unwrap()),
        ),
        (
            "2x4 alltoall",
            LogicalTopology::alltoall(HierAllToAll::new(2, 4, 2, 3).unwrap()),
        ),
        (
            "2 pods of 2x2x1",
            LogicalTopology::pods(
                PodFabric::new(Torus3d::new(2, 2, 1, 2, 2, 2).unwrap(), 2, 2).unwrap(),
            ),
        ),
    ]
}

#[test]
fn indices_follow_first_occurrence_and_every_link_resolves() {
    for (name, topo) in fabrics() {
        let links = topo.links();
        let (distinct, index_of) = first_occurrence(&links);
        let table = LinkTable::new(&topo);
        assert_eq!(table.len(), distinct.len(), "{name}: link count");
        assert_eq!(table.specs(), distinct.as_slice(), "{name}: link order");
        for (l, &want) in links.iter().zip(&index_of) {
            assert_eq!(table.lookup(&hop(l)).unwrap(), want, "{name}: {l:?}");
        }
        // Both backends report per-link statistics in the same order.
        let cfg = NetworkConfig::default();
        assert_eq!(AnalyticalNet::new(&topo, &cfg).num_links(), distinct.len());
        assert_eq!(GarnetNet::new(&topo, &cfg).num_links(), distinct.len());
    }
}

#[test]
fn repeated_specs_keep_their_first_index() {
    // No built-in fabric lists a link twice (a 2-member ring lists a->b and
    // b->a, which are distinct), so feed the table a list that does.
    let topo = LogicalTopology::torus(Torus3d::new(2, 2, 2, 2, 2, 2).unwrap());
    let links = topo.links();
    let mut repeated = links.clone();
    repeated.insert(3, links[7]);
    repeated.extend_from_slice(&links[..5]);
    let (distinct, index_of) = first_occurrence(&repeated);
    assert_eq!(distinct.len(), links.len());
    let table = LinkTable::from_specs(&repeated);
    assert_eq!(table.specs(), distinct.as_slice());
    for (l, &want) in repeated.iter().zip(&index_of) {
        assert_eq!(table.lookup(&hop(l)).unwrap(), want, "{l:?}");
    }
    // The repeat of link 7 at position 3 moved it to index 3.
    assert_eq!(table.lookup(&hop(&links[7])).unwrap(), 3);
}

#[test]
fn foreign_hops_are_unknown_links() {
    for (name, topo) in fabrics() {
        let table = LinkTable::new(&topo);
        let nodes = topo.num_network_nodes();
        let l = topo.links()[0];
        let foreign = [
            // A channel the fabric does not have.
            Hop {
                channel: Channel {
                    dim: l.channel.dim,
                    ring: 99,
                },
                ..hop(&l)
            },
            // A self-loop.
            Hop {
                to: l.from,
                ..hop(&l)
            },
            // Endpoints outside the fabric.
            Hop {
                from: NodeId(nodes + 5),
                ..hop(&l)
            },
            Hop {
                to: NodeId(nodes + 5),
                ..hop(&l)
            },
            // A dimension the fabric does not have.
            Hop {
                channel: Channel {
                    dim: Dim::ScaleOut,
                    ring: 7,
                },
                ..hop(&l)
            },
        ];
        for h in foreign {
            assert_eq!(
                table.lookup(&h),
                Err(NetworkError::UnknownLink {
                    from: h.from,
                    to: h.to,
                    channel: h.channel,
                }),
                "{name}: {h:?}"
            );
        }
    }
}
