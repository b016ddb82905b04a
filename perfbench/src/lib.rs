//! Host-performance benchmark of the ASTRA-sim reproduction.
//!
//! A workload is a fixed list of ops taken from the paper's configs; one op
//! is one collective or one training run. Every op is set up from its
//! config, driven to completion through the public API, and its simulated
//! output is checked against [`pinned`]. The per-layer split is measured
//! from outside the crates: set-up constructors are timed one by one, the
//! network backend is wrapped in a [`probe::Probe`], and the loop that
//! drives `SystemSim::step` is timed here.

pub mod alloc;
pub mod pinned;
pub mod probe;
pub mod reference;

use astra_bench::calibrated_resnet50;
use astra_collectives::plan_with_intra;
use astra_core::{SimConfig, Simulator, TopologyConfig};
use astra_network::{AnalyticalNet, Backend, GarnetNet};
use astra_system::{BackendKind, CollectiveRequest, Notification, SystemConfig, SystemSim};
use astra_topology::LogicalTopology;
use astra_workload::{Parallelism, TrainingRunner};
use probe::{Counters, NetCounters, Probe};
use std::str::FromStr;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 10's grid on the analytical backend: 4 shapes × 6 sizes.
    Fig10Analytical,
    /// Fig 10's shapes on Garnet at 64 KiB and 256 KiB.
    Fig10Garnet,
    /// ResNet-50 data-parallel training, 2 passes, 2x8x4 torus.
    TrainResnet50,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig10Analytical,
        Workload::Fig10Garnet,
        Workload::TrainResnet50,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig10Analytical => "fig10_analytical",
            Workload::Fig10Garnet => "fig10_garnet",
            Workload::TrainResnet50 => "train_resnet50",
        }
    }

    /// The workload's ops in their fixed order.
    pub fn ops(self) -> Vec<OpSpec> {
        let grid = |backend: BackendKind, sizes: &[u64]| {
            let mut ops = Vec::new();
            for topology in fig10_shapes() {
                for &bytes in sizes {
                    let cfg = SimConfig {
                        topology: topology.clone(),
                        ..SimConfig::torus(1, 64, 1)
                            .symmetric_links()
                            .with_backend(backend)
                    };
                    ops.push(OpSpec::new(cfg, OpKind::AllReduce { bytes }));
                }
            }
            ops
        };
        match self {
            Workload::Fig10Analytical => grid(BackendKind::Analytical, &astra_bench::SIZE_SWEEP),
            Workload::Fig10Garnet => grid(BackendKind::Garnet, &astra_bench::SIZE_SWEEP[..2]),
            Workload::TrainResnet50 => vec![OpSpec::new(
                SimConfig::torus(2, 8, 4).passes(2),
                OpKind::Training,
            )],
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {s:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// Fig 10's four 64-package shapes with the ring counts of the
/// `fig10_torus_scaling` bench: one bidirectional ring per active
/// inter-package dimension pair, four unidirectional local rings.
fn fig10_shapes() -> [TopologyConfig; 4] {
    let shape = |m, n, k, lr| {
        SimConfig::torus(m, n, k)
            .local_rings(lr)
            .horizontal_rings(2)
            .vertical_rings(2)
            .topology
    };
    [
        SimConfig::torus(1, 64, 1)
            .local_rings(1)
            .horizontal_rings(2)
            .vertical_rings(1)
            .topology,
        shape(1, 8, 8, 1),
        shape(2, 8, 4, 4),
        shape(4, 4, 4, 4),
    ]
}

/// What one op runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One all-reduce of `bytes` per NPU.
    AllReduce {
        /// Set size per NPU.
        bytes: u64,
    },
    /// One run of the calibrated ResNet-50 for `cfg.passes` passes.
    Training,
}

/// One op of a workload.
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// Stable name, the key into [`pinned`].
    pub label: String,
    /// The simulator configuration.
    pub cfg: SimConfig,
    /// What runs on it.
    pub kind: OpKind,
}

impl OpSpec {
    fn new(cfg: SimConfig, kind: OpKind) -> Self {
        let backend = match cfg.backend {
            BackendKind::Analytical => "analytical",
            BackendKind::Garnet => "garnet",
        };
        let what = match kind {
            OpKind::AllReduce { bytes } => format!("all-reduce {bytes}"),
            OpKind::Training => format!("resnet50 x{}", cfg.passes),
        };
        let label = format!("{backend} {} {what}", cfg.topology.shape());
        OpSpec { label, cfg, kind }
    }
}

/// Host ns of each set-up stage of one op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetupTimes {
    /// `Simulator::new` (config validation) and the topology build.
    pub topology_ns: u64,
    /// The network backend's constructor.
    pub backend_ns: u64,
    /// `SystemSim::with_backend`.
    pub system_ns: u64,
    /// ResNet-50's layer timings from the compute model (training only).
    pub compute_ns: u64,
    /// `TrainingRunner::new` (training only).
    pub runner_ns: u64,
}

impl SetupTimes {
    /// Adds `other` stage by stage.
    pub fn add(&mut self, other: &SetupTimes) {
        self.topology_ns += other.topology_ns;
        self.backend_ns += other.backend_ns;
        self.system_ns += other.system_ns;
        self.compute_ns += other.compute_ns;
        self.runner_ns += other.runner_ns;
    }
}

/// A simulation ready to step. One exists per op and is moved once, so
/// boxing the larger variant would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Ready {
    /// The simulator, its request, and one completion flag per NPU.
    Collective {
        sim: SystemSim,
        req: CollectiveRequest,
        done: Vec<bool>,
    },
    /// The runner owns the simulator.
    Training(TrainingRunner),
}

/// An op after set-up.
pub struct Prepared {
    ready: Ready,
    counters: Counters,
    /// Set-up stage times.
    pub setup: SetupTimes,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    *slot += ns_since(t);
    out
}

/// Host ns of the program's own set-up of the op, from config to a
/// simulator ready to step: `Simulator::new` and `system_sim`, plus the
/// calibrated compute model and `TrainingRunner::new` for training. The
/// simulation is dropped unrun.
///
/// # Errors
///
/// Fails if the program rejects the config.
pub fn program_setup_ns(op: &OpSpec) -> Result<u64, String> {
    let cfg = op.cfg.clone();
    let t = Instant::now();
    let sim = Simulator::new(cfg)
        .and_then(|s| s.system_sim())
        .map_err(|e| e.to_string())?;
    if op.kind == OpKind::Training {
        let runner = TrainingRunner::new(sim, calibrated_resnet50(), op.cfg.passes)
            .map_err(|e| e.to_string())?;
        let ns = ns_since(t);
        drop(runner);
        return Ok(ns);
    }
    let ns = ns_since(t);
    drop(sim);
    Ok(ns)
}

/// Builds the op's simulation from its config, timing each stage. The
/// stages are those of `Simulator::system_sim` for a config without overlay
/// or fault plan, with the backend wrapped in a [`Probe`].
///
/// # Errors
///
/// Fails if a stage rejects the config.
pub fn set_up(op: &OpSpec, traced: bool) -> Result<Prepared, String> {
    let mut times = SetupTimes::default();
    let cfg = &op.cfg;
    let topo = timed(&mut times.topology_ns, || {
        Simulator::new(cfg.clone())?;
        Ok::<_, astra_core::CoreError>(cfg.topology.build()?)
    })
    .map_err(|e| e.to_string())?;
    let (probe, counters) = timed(&mut times.backend_ns, || {
        let net: Box<dyn Backend> = match cfg.backend {
            BackendKind::Analytical => Box::new(AnalyticalNet::new(&topo, &cfg.network)),
            BackendKind::Garnet => Box::new(GarnetNet::new(&topo, &cfg.network)),
        };
        Probe::new(net, traced)
    });
    let sim = timed(&mut times.system_ns, || {
        SystemSim::with_backend(topo, cfg.system, &cfg.network, Box::new(probe))
    });
    let ready = match op.kind {
        OpKind::AllReduce { bytes } => {
            let req = CollectiveRequest::all_reduce(bytes);
            let done = vec![false; sim.topology().num_npus()];
            Ready::Collective { sim, req, done }
        }
        OpKind::Training => {
            let workload = timed(&mut times.compute_ns, calibrated_resnet50);
            let runner = timed(&mut times.runner_ns, || {
                TrainingRunner::new(sim, workload, cfg.passes)
            })
            .map_err(|e| e.to_string())?;
            Ready::Training(runner)
        }
    };
    Ok(Prepared {
        ready,
        counters,
        setup: times,
    })
}

/// The collectives a training run issues per pass, as the runner builds
/// them.
fn workload_requests(workload: &astra_workload::Workload) -> Vec<CollectiveRequest> {
    let par: &Parallelism = &workload.parallelism;
    let mut out = Vec::new();
    for layer in &workload.layers {
        let comms = [
            (layer.fwd_comm, par.activation_dims()),
            (layer.ig_comm, par.activation_dims()),
            (layer.wg_comm, par.weight_grad_dims()),
        ];
        for (spec, dims) in comms {
            if let Some(spec) = spec {
                out.push(CollectiveRequest {
                    op: spec.op,
                    bytes: spec.bytes,
                    dims: dims.map(<[_]>::to_vec),
                    algorithm: None,
                    local_update_per_kb: Some(layer.local_update_per_kb),
                });
            }
        }
    }
    out
}

/// The simulated result of a completed op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// A collective: duration cycles, `NetStats.delivered`, Σ link
    /// traversals, `NetStats.payload_bytes`.
    Collective {
        /// Issue to last-NPU completion, in cycles.
        duration: u64,
        /// Messages delivered.
        delivered: u64,
        /// Σ `LinkStats::traversals`.
        traversals: u64,
        /// Payload bytes delivered.
        payload_bytes: u64,
    },
    /// A training run: `total_time` and `total_exposed` in cycles.
    Training {
        /// Simulated time until every NPU finished every pass.
        total_time: u64,
        /// Exposed communication per NPU.
        total_exposed: u64,
    },
}

/// How an op ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every NPU finished, the stack audited quiescent (collectives), and
    /// the output is as pinned (or the op has no pin).
    Correct(Output),
    /// It finished but its output differs from the pin.
    Wrong {
        /// What came out.
        got: Output,
        /// What [`pinned`] holds.
        want: Output,
    },
    /// It aborted or did not finish cleanly.
    Failed(String),
}

/// One op's measurements.
#[derive(Debug, Clone)]
pub struct OpRun {
    /// How it ended.
    pub outcome: Outcome,
    /// Host ns from the first call into the simulator to its draining;
    /// set-up and output checks excluded.
    pub op_ns: u64,
    /// Host ns of planning the op's collectives once more, outside
    /// `op_ns` (traced only).
    pub plan_ns: u64,
    /// Events the simulation processed (a training run that aborted
    /// reports 0).
    pub events: u64,
    /// Heap allocations during `op_ns`.
    pub allocs: u64,
    /// What the probe saw (its traversals are taken when the simulator
    /// drops).
    pub net: NetCounters,
}

/// Runs a prepared op to completion and checks its output.
pub fn execute(op: &OpSpec, prepared: Prepared, traced: bool) -> OpRun {
    let Prepared {
        ready, counters, ..
    } = prepared;
    let mut plan_ns = 0;
    let (result, op_ns, allocs, events) = match ready {
        Ready::Collective {
            mut sim,
            req,
            mut done,
        } => {
            if traced {
                plan_ns = time_plans(sim.topology(), sim.config(), std::slice::from_ref(&req), 1);
            }
            let (driven, op_ns, allocs) = measured(|| drive(&mut sim, req));
            let events = sim.events_processed();
            let result = driven.and_then(|id| finish_collective(&mut sim, id, &mut done));
            drop(sim);
            let result = result.map(|(duration, delivered, payload_bytes)| Output::Collective {
                duration,
                delivered,
                traversals: counters.borrow().traversals,
                payload_bytes,
            });
            (result, op_ns, allocs, events)
        }
        Ready::Training(runner) => {
            if traced {
                let topo = op.cfg.topology.build().expect("set-up built it");
                let requests = workload_requests(&calibrated_resnet50());
                plan_ns = time_plans(&topo, &op.cfg.system, &requests, op.cfg.passes);
            }
            let (run, op_ns, allocs) = measured(|| runner.run_instrumented());
            match run {
                Ok((report, events)) => {
                    let output = Output::Training {
                        total_time: report.total_time.cycles(),
                        total_exposed: report.total_exposed.cycles(),
                    };
                    (Ok(output), op_ns, allocs, events)
                }
                Err(e) => (Err(e.to_string()), op_ns, allocs, 0),
            }
        }
    };
    let outcome = match result {
        Err(e) => Outcome::Failed(e),
        Ok(got) => match pinned::output(&op.label) {
            Some(want) if want != got => Outcome::Wrong { got, want },
            _ => Outcome::Correct(got),
        },
    };
    let net = *counters.borrow();
    OpRun {
        outcome,
        op_ns,
        plan_ns,
        events,
        allocs,
        net,
    }
}

/// Runs `f`, returning its result, host ns and heap allocations.
fn measured<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let allocs = alloc::allocations();
    let t = Instant::now();
    let out = f();
    let ns = ns_since(t);
    (out, ns, alloc::allocations() - allocs)
}

/// Host ns of planning each request `repeats` times the way
/// `SystemSim::issue_collective` does. Planning errors are the op's to
/// report, so they are ignored here.
fn time_plans(
    topo: &LogicalTopology,
    cfg: &SystemConfig,
    requests: &[CollectiveRequest],
    repeats: u32,
) -> u64 {
    let mut ns = 0;
    for _ in 0..repeats {
        for req in requests {
            let algorithm = req.algorithm.unwrap_or(cfg.algorithm);
            timed(&mut ns, || {
                let plan =
                    plan_with_intra(topo, req.op, algorithm, req.dims.as_deref(), cfg.intra_algo);
                std::hint::black_box(plan).ok();
            });
        }
    }
    ns
}

/// Issues the collective and steps the simulator until its queue drains.
fn drive(sim: &mut SystemSim, req: CollectiveRequest) -> Result<astra_system::CollId, String> {
    let id = sim.issue_collective(req).map_err(|e| e.to_string())?;
    while sim.step().map_err(|e| e.to_string())? {}
    Ok(id)
}

/// Collects the drained collective's completion notices and audits the
/// stack; returns (duration cycles, messages delivered, payload bytes).
fn finish_collective(
    sim: &mut SystemSim,
    id: astra_system::CollId,
    done: &mut [bool],
) -> Result<(u64, u64, u64), String> {
    while let Some(note) = sim.run_until_notification().map_err(|e| e.to_string())? {
        if let Notification::CollectiveDone { coll, npu, .. } = note {
            if coll == id {
                done[npu.index()] = true;
            }
        }
    }
    let missing = done.iter().filter(|d| !**d).count();
    if missing > 0 {
        return Err(format!(
            "{missing} NPU(s) never reported the collective done"
        ));
    }
    sim.audit_quiescent()?;
    let report = sim
        .report(id)
        .ok_or_else(|| "no report for the completed collective".to_string())?;
    let net = sim.net_stats();
    Ok((report.duration().cycles(), net.delivered, net.payload_bytes))
}
