//! The data-plane shadow oracle: symbolic payloads through the plan.
//!
//! The timing simulation moves *bytes*; nothing in it can notice a plan
//! that moves the wrong bytes on schedule. This oracle re-executes the
//! exact plan the system layer runs — chunk by chunk — on the symbolic
//! executor in [`astra_collectives::semantics`]: each chunk of each node's
//! set starts as an atom identifying its contributor, reduction phases fold
//! contributor sets together, gather/scatter phases move them, and the
//! collective's postcondition is checked on every NPU.
//!
//! [`Mutation`]s inject deliberate faults (a skipped phase, a swapped
//! reduction op, a dropped contribution) to prove the oracle catches them,
//! and [`shadow_conformance`] ties the symbolic result to the timed
//! simulation by checking the recorded trace follows the same plan.

use astra_collectives::{plan_with_intra, semantics, CollectivePlan};
use astra_core::{SimConfig, Simulator};
use astra_system::{CollectiveRequest, Notification};
use astra_topology::LogicalTopology;
use std::collections::BTreeMap;

pub use astra_collectives::semantics::Mutation;

/// Symbolically executes `plan` on `topo` for every one of `chunks`
/// independent chunks, applying `mutations`, and checks the collective's
/// postcondition on every NPU for every chunk.
///
/// With no mutations this must pass for every plan the planner emits; with
/// any mutation it must fail (that is what the demonstration tests assert).
///
/// # Errors
///
/// A human-readable description of the first violated postcondition,
/// prefixed with the chunk it occurred on.
pub fn shadow_verify(
    topo: &LogicalTopology,
    plan: &CollectivePlan,
    chunks: u32,
    mutations: &[Mutation],
) -> Result<(), String> {
    for chunk in 0..chunks {
        semantics::verify_with_mutations(topo, plan, mutations)
            .map_err(|e| format!("chunk {chunk}: {e}"))?;
    }
    Ok(())
}

/// The end-to-end shadow oracle for one configuration: verifies the data
/// plane of the exact plan the system layer will execute, runs the timed
/// simulation, and checks the recorded trace conforms to that plan (every
/// chunk of every NPU traverses every phase, in order) with a clean
/// quiescence audit afterwards.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn shadow_conformance(cfg: &SimConfig, req: &CollectiveRequest) -> Result<(), String> {
    let topo = cfg.topology.build().map_err(|e| e.to_string())?;
    let algorithm = req.algorithm.unwrap_or(cfg.system.algorithm);
    let plan = plan_with_intra(
        &topo,
        req.op,
        algorithm,
        req.dims.as_deref(),
        cfg.system.intra_algo,
    )
    .map_err(|e| e.to_string())?;

    // 1. The schedule's data plane is correct, chunk by chunk.
    shadow_verify(&topo, &plan, cfg.system.set_splits, &[])?;

    // 2. The timed simulation executes that schedule faithfully.
    let simulator = Simulator::new(cfg.clone()).map_err(|e| e.to_string())?;
    let mut sim = simulator.system_sim().map_err(|e| e.to_string())?;
    sim.enable_tracing();
    let id = sim.issue_collective(req.clone()).map_err(|e| e.to_string())?;
    let n = sim.topology().num_npus();
    let mut done = 0;
    while done < n {
        match sim.run_until_notification().map_err(|e| e.to_string())? {
            Some(Notification::CollectiveDone { coll, .. }) if coll == id => done += 1,
            Some(_) => {}
            None => return Err("collective never completed (simulation drained)".into()),
        }
    }
    sim.run_until_idle().map_err(|e| e.to_string())?;
    sim.audit_quiescent()?;

    let report = sim.report(id).ok_or("missing collective report")?;
    let phases = report.phases;
    let chunks = report.chunks;
    if phases != plan.phases().len() {
        return Err(format!(
            "system executed {} phases, plan has {}",
            phases,
            plan.phases().len()
        ));
    }

    // Per (npu, chunk): one span per phase, phase starts non-decreasing,
    // each span well-formed.
    let spans = sim.trace().ok_or("tracing yielded no spans")?;
    // (phase, start cycles, end cycles) per traced span, keyed by (npu, chunk).
    type SpanSeq = Vec<(u8, u64, u64)>;
    let mut by_key: BTreeMap<(u32, u32), SpanSeq> = BTreeMap::new();
    for s in spans {
        if s.coll != id.0 {
            continue;
        }
        if s.start > s.end {
            return Err(format!(
                "npu {} chunk {} phase {}: span ends before it starts",
                s.npu, s.chunk, s.phase
            ));
        }
        by_key
            .entry((s.npu, s.chunk))
            .or_default()
            .push((s.phase, s.start.cycles(), s.end.cycles()));
    }
    if by_key.len() != n * chunks as usize {
        return Err(format!(
            "trace covers {} (npu, chunk) pairs, want {} ({} npus x {} chunks)",
            by_key.len(),
            n * chunks as usize,
            n,
            chunks
        ));
    }
    for ((npu, chunk), mut seq) in by_key {
        seq.sort_by_key(|&(phase, start, _)| (phase, start));
        let got: Vec<u8> = seq.iter().map(|&(p, _, _)| p).collect();
        let want: Vec<u8> = (0..phases as u8).collect();
        if got != want {
            return Err(format!(
                "npu {npu} chunk {chunk} traversed phases {got:?}, want {want:?}"
            ));
        }
        for w in seq.windows(2) {
            let (_, _, prev_end) = w[0];
            let (next_phase, next_start, _) = w[1];
            if next_start < prev_end {
                return Err(format!(
                    "npu {npu} chunk {chunk}: phase {next_phase} started at {next_start} \
                     before the previous phase ended at {prev_end}"
                ));
            }
        }
    }
    Ok(())
}
