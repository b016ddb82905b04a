//! Functional (untimed) execution of collective plans, used to *prove* that
//! a synthesized plan delivers the collective's semantics on every node.
//!
//! The executor tracks data at shard granularity: the collective's element
//! space is divided into one **piece** per combination of plan-dimension
//! coordinates, and each node's state maps pieces to the set of nodes whose
//! contribution has been folded in (a symbolic payload). Reduction phases
//! fold contributor sets together; gather and scatter phases move them.
//! After the last phase the op's postcondition is checked on every node:
//!
//! * **all-reduce** — every node holds every piece, each reduced over the
//!   full participant slice (the "full sum" everywhere);
//! * **all-gather** — every node holds all shards, each attributed to
//!   exactly its owner;
//! * **reduce-scatter** — every node holds exactly its own shard, fully
//!   reduced;
//! * **all-to-all** — every node ends with precisely the items addressed
//!   to it, one from each source.
//!
//! This catches planner mistakes (wrong phase order, wrong scales, wrong
//! dimension) that a timing simulation would happily mis-time without
//! noticing. [`Mutation`]s inject deliberate faults into the execution
//! ([`verify_with_mutations`]) to prove the check bites: a mutated plan
//! must fail to verify.
//!
//! # Example
//!
//! ```
//! use astra_collectives::{plan, semantics, Algorithm, CollectiveOp};
//! use astra_topology::{LogicalTopology, Torus3d};
//!
//! let topo = LogicalTopology::torus(Torus3d::new(2, 4, 4, 2, 2, 2)?);
//! let p = plan(&topo, CollectiveOp::AllReduce, Algorithm::Enhanced, None)?;
//! semantics::verify_plan(&topo, &p).expect("enhanced all-reduce is correct");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::{CollectiveOp, CollectivePlan, PhaseOp, PhaseSpec};
use astra_topology::{Coord, Dim, LogicalTopology, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// A deliberate fault injected into the symbolic execution, used to
/// demonstrate that the verifier bites (a mutated plan must fail to verify).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Drop the phase at this index entirely.
    SkipPhase(usize),
    /// Replace the op of the phase at this index (e.g. turn a
    /// reduce-scatter into an all-gather — a "wrong reduction op").
    SwapOp {
        /// Index of the phase to mutate.
        phase: usize,
        /// The replacement op.
        op: PhaseOp,
    },
    /// During the phase at this index, lose `node`'s contribution to its
    /// group's reduction (models a corrupted partial sum).
    DropContribution {
        /// Index of the phase to mutate.
        phase: usize,
        /// The node whose contribution is dropped.
        node: usize,
    },
}

/// Coordinates of a node along every dimension (inactive dims read 0).
fn coords_of(topo: &LogicalTopology, node: NodeId) -> [usize; 5] {
    let mut c = [0usize; 5];
    // infallible: every caller iterates node over 0..topo.num_npus(), so
    // the coordinate lookups below always succeed.
    match topo {
        LogicalTopology::Torus3d(t) => {
            let Coord { l, h, v } = t.coord(node).expect("node in range");
            c[Dim::Local.index()] = l;
            c[Dim::Horizontal.index()] = h;
            c[Dim::Vertical.index()] = v;
        }
        LogicalTopology::AllToAll(a) => {
            let (l, p) = a.split(node).expect("node in range");
            c[Dim::Local.index()] = l;
            c[Dim::Package.index()] = p;
        }
        LogicalTopology::Pods(f) => {
            let (intra, pod) = f.split(node).expect("node in range");
            let Coord { l, h, v } = f
                .pod()
                .coord(NodeId(intra))
                .expect("intra id in range");
            c[Dim::Local.index()] = l;
            c[Dim::Horizontal.index()] = h;
            c[Dim::Vertical.index()] = v;
            c[Dim::ScaleOut.index()] = pod;
        }
    }
    c
}

/// Mixed-radix encoding of a node's plan-dimension coordinates.
fn piece_of(coords: &[usize; 5], dims: &[(Dim, usize)]) -> usize {
    let mut piece = 0;
    let mut stride = 1;
    for &(d, size) in dims {
        piece += coords[d.index()] * stride;
        stride *= size;
    }
    piece
}

fn piece_coord(piece: usize, dims: &[(Dim, usize)], dim: Dim) -> Result<usize, String> {
    let mut rest = piece;
    for &(d, size) in dims {
        if d == dim {
            return Ok(rest % size);
        }
        rest /= size;
    }
    Err(format!("phase dimension {dim} is not a plan dimension"))
}

/// Group key: all coordinates except the phase dimension (nodes matching on
/// it run one instance of the phase's ring/group together).
fn group_key(coords: &[usize; 5], dim: Dim) -> [usize; 5] {
    let mut k = *coords;
    k[dim.index()] = usize::MAX;
    k
}

/// Slice key: all coordinates outside the plan's dimensions (nodes matching
/// on it participate in one instance of the whole collective).
fn slice_key(coords: &[usize; 5], dims: &[(Dim, usize)]) -> [usize; 5] {
    let mut k = *coords;
    for &(d, _) in dims {
        k[d.index()] = usize::MAX;
    }
    k
}

/// Whether `mutations` drop `node`'s contribution during phase `phase`.
fn dropped(mutations: &[Mutation], phase: usize, node: usize) -> bool {
    mutations.contains(&Mutation::DropContribution { phase, node })
}

type Contribs = BTreeMap<usize, BTreeSet<usize>>; // piece -> contributor node ids

/// Runs `plan` functionally on `topo` and checks the op's postcondition on
/// every node.
///
/// # Errors
///
/// Returns a human-readable description of the first violated invariant.
pub fn verify_plan(topo: &LogicalTopology, plan: &CollectivePlan) -> Result<(), String> {
    verify_with_mutations(topo, plan, &[])
}

/// As [`verify_plan`], with `mutations` applied to the execution.
///
/// With no mutations this passes for every plan the planner emits; with
/// any mutation it must fail (that is what the mutation demonstrations
/// assert).
///
/// # Errors
///
/// Returns a human-readable description of the first violated invariant.
pub fn verify_with_mutations(
    topo: &LogicalTopology,
    plan: &CollectivePlan,
    mutations: &[Mutation],
) -> Result<(), String> {
    let n = topo.num_npus();
    let coords: Vec<[usize; 5]> = (0..n).map(|i| coords_of(topo, NodeId(i))).collect();
    let dims: Vec<(Dim, usize)> = {
        let plan_dims = plan.dims();
        topo.dims()
            .into_iter()
            .filter(|s| plan_dims.contains(&s.dim))
            .map(|s| (s.dim, s.size))
            .collect()
    };
    if dims.is_empty() {
        return Err("plan has no dimensions".into());
    }

    // Apply the structural mutations, keeping original phase indices so
    // DropContribution still targets by index.
    let mut phases: Vec<(usize, PhaseSpec)> = plan.phases().iter().copied().enumerate().collect();
    for m in mutations {
        match *m {
            Mutation::SkipPhase(i) => phases.retain(|&(idx, _)| idx != i),
            Mutation::SwapOp { phase, op } => {
                for (idx, p) in &mut phases {
                    if *idx == phase {
                        p.op = op;
                    }
                }
            }
            Mutation::DropContribution { .. } => {}
        }
    }

    match plan.op() {
        CollectiveOp::AllToAll => verify_a2a(&phases, &coords, &dims, mutations),
        op => verify_reduction_family(op, &phases, &coords, &dims, mutations),
    }
}

fn verify_reduction_family(
    op: CollectiveOp,
    phases: &[(usize, PhaseSpec)],
    coords: &[[usize; 5]],
    dims: &[(Dim, usize)],
    mutations: &[Mutation],
) -> Result<(), String> {
    let n = coords.len();
    let num_pieces: usize = dims.iter().map(|&(_, s)| s).product();
    // Initial state.
    let mut state: Vec<Contribs> = (0..n)
        .map(|i| {
            let mut m = Contribs::new();
            match op {
                CollectiveOp::AllGather => {
                    m.insert(piece_of(&coords[i], dims), BTreeSet::from([i]));
                }
                _ => {
                    for p in 0..num_pieces {
                        m.insert(p, BTreeSet::from([i]));
                    }
                }
            }
            m
        })
        .collect();

    for &(idx, phase) in phases {
        let groups = build_groups(coords, phase.dim);
        for members in groups.values() {
            match phase.op {
                PhaseOp::ReduceScatter => {
                    let pieces: BTreeSet<usize> = members
                        .iter()
                        .flat_map(|&m| state[m].keys().copied())
                        .collect();
                    for p in pieces {
                        let mut union = BTreeSet::new();
                        for &m in members {
                            if let Some(c) = state[m].remove(&p) {
                                if !dropped(mutations, idx, m) {
                                    union.extend(c);
                                }
                            }
                        }
                        let want = piece_coord(p, dims, phase.dim)?;
                        let owner = members
                            .iter()
                            .copied()
                            .find(|&m| coords[m][phase.dim.index()] == want)
                            .ok_or_else(|| {
                                format!("phase {idx}: no group member owns piece coord {want}")
                            })?;
                        state[owner].insert(p, union);
                    }
                }
                PhaseOp::AllGather => {
                    // A gather copies shards verbatim — it cannot combine.
                    // Conflicting versions of the same piece among the group
                    // mean a reduce was required here (the "wrong reduction
                    // op" failure mode), and the symbolic payload makes that
                    // visible.
                    let mut gathered = Contribs::new();
                    for &m in members {
                        if dropped(mutations, idx, m) {
                            continue;
                        }
                        for (p, c) in &state[m] {
                            match gathered.get(p) {
                                None => {
                                    gathered.insert(*p, c.clone());
                                }
                                Some(seen) if seen == c => {}
                                Some(seen) => {
                                    return Err(format!(
                                        "phase {idx}: all-gather saw conflicting versions \
                                         of piece {p} ({seen:?} vs {c:?}) — gather cannot \
                                         combine partial reductions"
                                    ));
                                }
                            }
                        }
                    }
                    for &m in members {
                        state[m] = gathered.clone();
                    }
                }
                PhaseOp::AllReduce => {
                    let first: BTreeSet<usize> = state[members[0]].keys().copied().collect();
                    for &m in members[1..].iter() {
                        let set: BTreeSet<usize> = state[m].keys().copied().collect();
                        if set != first {
                            return Err(format!(
                                "phase {idx}: all-reduce group members hold different piece \
                                 sets (planner bug)"
                            ));
                        }
                    }
                    for p in first {
                        let mut union = BTreeSet::new();
                        for &m in members {
                            if !dropped(mutations, idx, m) {
                                union.extend(state[m][&p].iter().copied());
                            }
                        }
                        for &m in members {
                            state[m].insert(p, union.clone());
                        }
                    }
                }
                PhaseOp::AllToAll => {
                    return Err(format!(
                        "phase {idx}: all-to-all phase inside a reduction collective"
                    ));
                }
            }
        }
    }

    // Postconditions.
    for i in 0..n {
        let slice: BTreeSet<usize> = (0..n)
            .filter(|&j| slice_key(&coords[j], dims) == slice_key(&coords[i], dims))
            .collect();
        match op {
            CollectiveOp::AllReduce => {
                if state[i].len() != num_pieces {
                    return Err(format!(
                        "all-reduce: node {i} holds {} of {num_pieces} pieces",
                        state[i].len()
                    ));
                }
                for (p, c) in &state[i] {
                    if *c != slice {
                        return Err(format!(
                            "all-reduce: node {i} piece {p} reduced over {} of {} \
                             contributors",
                            c.len(),
                            slice.len()
                        ));
                    }
                }
            }
            CollectiveOp::ReduceScatter => {
                let own = piece_of(&coords[i], dims);
                if state[i].len() != 1 || !state[i].contains_key(&own) {
                    return Err(format!(
                        "reduce-scatter: node {i} holds pieces {:?}, want only {own}",
                        state[i].keys().collect::<Vec<_>>()
                    ));
                }
                if state[i][&own] != slice {
                    return Err(format!("reduce-scatter: node {i} shard not fully reduced"));
                }
            }
            CollectiveOp::AllGather => {
                if state[i].len() != num_pieces {
                    return Err(format!(
                        "all-gather: node {i} holds {} of {num_pieces} pieces",
                        state[i].len()
                    ));
                }
                for (p, c) in &state[i] {
                    let Some(owner) = slice
                        .iter()
                        .copied()
                        .find(|&j| piece_of(&coords[j], dims) == *p)
                    else {
                        return Err(format!(
                            "all-gather: node {i} holds piece {p}, which no node \
                             in its slice owns"
                        ));
                    };
                    if *c != BTreeSet::from([owner]) {
                        return Err(format!(
                            "all-gather: node {i} piece {p} has contributors {c:?}, want \
                             {{{owner}}}"
                        ));
                    }
                }
            }
            CollectiveOp::AllToAll => unreachable!("handled separately"),
        }
    }
    Ok(())
}

fn verify_a2a(
    phases: &[(usize, PhaseSpec)],
    coords: &[[usize; 5]],
    dims: &[(Dim, usize)],
    mutations: &[Mutation],
) -> Result<(), String> {
    let n = coords.len();
    let num_pieces: usize = dims.iter().map(|&(_, s)| s).product();
    // Items are (source piece, destination piece); each node starts with the
    // items sourced at itself, destined everywhere in its slice.
    let mut state: Vec<BTreeSet<(usize, usize)>> = (0..n)
        .map(|i| {
            let s = piece_of(&coords[i], dims);
            (0..num_pieces).map(|d| (s, d)).collect()
        })
        .collect();

    for &(idx, phase) in phases {
        if phase.op != PhaseOp::AllToAll {
            return Err(format!("phase {idx}: non-A2A phase in an all-to-all plan"));
        }
        let groups = build_groups(coords, phase.dim);
        for members in groups.values() {
            let mut moved: Vec<(usize, (usize, usize))> = Vec::new();
            let mut err: Option<String> = None;
            for &m in members {
                state[m].retain(|&(s, d)| {
                    let want = match piece_coord(d, dims, phase.dim) {
                        Ok(w) => w,
                        Err(e) => {
                            err.get_or_insert(e);
                            return true;
                        }
                    };
                    let Some(target) = members
                        .iter()
                        .copied()
                        .find(|&y| coords[y][phase.dim.index()] == want)
                    else {
                        err.get_or_insert(format!(
                            "phase {idx}: piece {d} routes along {} to a coordinate no \
                             group member occupies",
                            phase.dim
                        ));
                        return true;
                    };
                    if target == m {
                        true
                    } else {
                        if !dropped(mutations, idx, m) {
                            moved.push((target, (s, d)));
                        }
                        false
                    }
                });
            }
            if let Some(e) = err {
                return Err(e);
            }
            for (target, item) in moved {
                state[target].insert(item);
            }
        }
    }

    for i in 0..n {
        let me = piece_of(&coords[i], dims);
        let want: BTreeSet<(usize, usize)> = (0..num_pieces).map(|s| (s, me)).collect();
        if state[i] != want {
            return Err(format!(
                "all-to-all: node {i} ended with {} items, {} expected (or wrong items)",
                state[i].len(),
                want.len()
            ));
        }
    }
    Ok(())
}

fn build_groups(coords: &[[usize; 5]], dim: Dim) -> BTreeMap<[usize; 5], Vec<usize>> {
    let mut groups: BTreeMap<[usize; 5], Vec<usize>> = BTreeMap::new();
    for (i, c) in coords.iter().enumerate() {
        groups.entry(group_key(c, dim)).or_default().push(i);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan, Algorithm};
    use astra_topology::{HierAllToAll, Torus3d};

    fn all_plans(topo: &LogicalTopology) -> Vec<CollectivePlan> {
        let mut out = Vec::new();
        for op in [
            CollectiveOp::ReduceScatter,
            CollectiveOp::AllGather,
            CollectiveOp::AllReduce,
            CollectiveOp::AllToAll,
        ] {
            for algo in [Algorithm::Baseline, Algorithm::Enhanced] {
                out.push(plan(topo, op, algo, None).unwrap());
            }
        }
        out
    }

    #[test]
    fn every_plan_correct_on_2x2x3_torus() {
        let topo = LogicalTopology::torus(Torus3d::new(2, 2, 3, 1, 1, 1).unwrap());
        for p in all_plans(&topo) {
            verify_plan(&topo, &p).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn every_plan_correct_on_4x4x4_torus() {
        let topo = LogicalTopology::torus(Torus3d::new(4, 4, 4, 2, 2, 2).unwrap());
        for p in all_plans(&topo) {
            verify_plan(&topo, &p).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn every_plan_correct_on_hier_alltoall() {
        let topo = LogicalTopology::alltoall(HierAllToAll::new(4, 4, 2, 2).unwrap());
        for p in all_plans(&topo) {
            verify_plan(&topo, &p).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn dim_subset_plans_correct() {
        // Hybrid-parallel weight gradients: local+horizontal only.
        let topo = LogicalTopology::torus(Torus3d::new(2, 2, 2, 1, 1, 1).unwrap());
        for algo in [Algorithm::Baseline, Algorithm::Enhanced] {
            let p = plan(
                &topo,
                CollectiveOp::AllReduce,
                algo,
                Some(&[Dim::Local, Dim::Horizontal]),
            )
            .unwrap();
            verify_plan(&topo, &p).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
        // Model-parallel activations: vertical only.
        let p = plan(
            &topo,
            CollectiveOp::AllGather,
            Algorithm::Baseline,
            Some(&[Dim::Vertical]),
        )
        .unwrap();
        verify_plan(&topo, &p).unwrap();
    }

    #[test]
    fn a_broken_plan_is_caught() {
        // A skipped phase or a lost partial sum must break the all-reduce
        // postcondition, while the unmutated plan verifies.
        let topo = LogicalTopology::torus(Torus3d::new(2, 2, 2, 1, 1, 1).unwrap());
        let p = plan(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, None).unwrap();
        verify_plan(&topo, &p).unwrap();
        for mutation in [
            Mutation::SkipPhase(p.phases().len() - 1),
            Mutation::DropContribution { phase: 0, node: 1 },
        ] {
            assert!(
                verify_with_mutations(&topo, &p, &[mutation]).is_err(),
                "{mutation:?} must be caught"
            );
        }
    }
}
