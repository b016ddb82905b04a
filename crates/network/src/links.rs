//! The dense link table both backends index their per-link state by.
//!
//! A topology names a link by `(from, to, channel)`; a backend wants a
//! dense index into its per-link arrays. [`LinkTable`] maps one to the
//! other with a flat CSR adjacency: each source node owns one contiguous,
//! sorted row of `(to, channel, link)` edges, so resolving a hop is a
//! binary search over that node's few outgoing links — no tree walk, no
//! hashing, no allocation.
//!
//! Link indices follow the first occurrence of each `(from, to, channel)`
//! in [`LogicalTopology::links`]; a repeated spec keeps its first index.
//! This is the order [`crate::NetStats::links`] reports in.

use crate::NetworkError;
use astra_topology::{Channel, Hop, LinkSpec, LogicalTopology, NodeId, Route};

/// One outgoing edge in a source node's row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    to: NodeId,
    channel: Channel,
    link: u32,
}

/// Dense indices of a topology's physical links; see the module
/// documentation.
#[derive(Debug, Clone)]
pub struct LinkTable {
    /// Row `n` is `edges[rows[n]..rows[n + 1]]`, sorted by `(to, channel)`.
    rows: Vec<u32>,
    edges: Vec<Edge>,
    /// Each link's spec, by dense index.
    specs: Vec<LinkSpec>,
}

impl LinkTable {
    /// Indexes `topo`'s links in one pass over [`LogicalTopology::links`].
    pub fn new(topo: &LogicalTopology) -> Self {
        Self::from_specs(&topo.links())
    }

    /// Indexes `all` in one pass; a spec that repeats an earlier
    /// `(from, to, channel)` keeps the earlier index.
    pub fn from_specs(all: &[LinkSpec]) -> Self {
        let nodes = all.iter().map(|s| s.from.index() + 1).max().unwrap_or(0);
        // Row capacities (duplicates included; they are squeezed out below).
        let mut start = vec![0u32; nodes + 1];
        for s in all {
            start[s.from.index() + 1] += 1;
        }
        for n in 0..nodes {
            start[n + 1] += start[n];
        }
        let mut used = vec![0u32; nodes];
        // Every slot a row uses is written before it is read; the filler
        // value only sizes the buffer.
        let filler = all.first().map(|s| Edge {
            to: s.to,
            channel: s.channel,
            link: 0,
        });
        let mut edges: Vec<Edge> = filler.map_or_else(Vec::new, |f| vec![f; all.len()]);
        let mut specs = Vec::with_capacity(all.len());
        for s in all {
            let row = s.from.index();
            let lo = start[row] as usize;
            let hi = lo + used[row] as usize;
            if edges[lo..hi]
                .iter()
                .any(|e| e.to == s.to && e.channel == s.channel)
            {
                continue;
            }
            edges[hi] = Edge {
                to: s.to,
                channel: s.channel,
                link: specs.len() as u32,
            };
            used[row] += 1;
            specs.push(*s);
        }
        // Squeeze out the slots duplicates left empty and sort each row.
        let mut rows = Vec::with_capacity(nodes + 1);
        rows.push(0u32);
        let mut packed = 0usize;
        for n in 0..nodes {
            let lo = start[n] as usize;
            let len = used[n] as usize;
            edges.copy_within(lo..lo + len, packed);
            edges[packed..packed + len].sort_unstable_by_key(|e| (e.to, e.channel));
            packed += len;
            rows.push(packed as u32);
        }
        edges.truncate(packed);
        LinkTable { rows, edges, specs }
    }

    /// Number of distinct links.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the topology has no links.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The spec of link `link` (its first occurrence in the topology).
    ///
    /// # Panics
    ///
    /// Panics if `link >= self.len()`.
    pub fn spec(&self, link: usize) -> &LinkSpec {
        &self.specs[link]
    }

    /// Every link's spec, by dense index.
    pub fn specs(&self) -> &[LinkSpec] {
        &self.specs
    }

    /// The dense index of the link `hop` traverses.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownLink`] if the topology has no such link.
    pub fn lookup(&self, hop: &Hop) -> Result<usize, NetworkError> {
        let from = hop.from.index();
        let unknown = NetworkError::UnknownLink {
            from: hop.from,
            to: hop.to,
            channel: hop.channel,
        };
        if from + 1 >= self.rows.len() {
            return Err(unknown);
        }
        let row = &self.edges[self.rows[from] as usize..self.rows[from + 1] as usize];
        row.binary_search_by_key(&(hop.to, hop.channel), |e| (e.to, e.channel))
            .map(|i| row[i].link as usize)
            .map_err(|_| unknown)
    }

    /// Checks that every hop of `route` is a link of the topology.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownLink`] for the first hop that is not.
    pub fn validate(&self, route: &Route) -> Result<(), NetworkError> {
        route
            .hops()
            .iter()
            .try_for_each(|h| self.lookup(h).map(drop))
    }

    /// Whether link `link` is the one `hop` traverses.
    pub(crate) fn carries(&self, link: usize, hop: &Hop) -> bool {
        let s = &self.specs[link];
        s.from == hop.from && s.to == hop.to && s.channel == hop.channel
    }
}
