//! The probe must not change what it measures, and the benchmark must
//! record an aborting op as a failure instead of panicking.

use astra_core::SimConfig;
use astra_network::NetStats;
use astra_network::{AnalyticalNet, Backend, GarnetNet};
use astra_perfbench::probe::{total_traversals, Probe};
use astra_perfbench::{execute, pinned, set_up, OpKind, Outcome, Workload};
use astra_system::{BackendKind, CollReport, CollectiveRequest, SystemSim, SystemStats};

fn run(mut sim: SystemSim, bytes: u64) -> (CollReport, SystemStats, NetStats) {
    let id = sim
        .issue_collective(CollectiveRequest::all_reduce(bytes))
        .expect("issues");
    sim.run_until_idle().expect("completes");
    sim.audit_quiescent().expect("quiescent");
    let report = sim.report(id).expect("report").clone();
    (report, sim.stats().clone(), sim.net_stats().clone())
}

fn assert_transparent(backend: BackendKind) {
    let cfg = SimConfig::torus(2, 2, 2).with_backend(backend);
    let bytes = 16 << 10;
    let topo = cfg.topology.build().expect("topology");
    let plain = SystemSim::new(topo.clone(), cfg.system, &cfg.network, backend);
    let want = run(plain, bytes);
    for traced in [false, true] {
        let inner: Box<dyn Backend> = match backend {
            BackendKind::Analytical => Box::new(AnalyticalNet::new(&topo, &cfg.network)),
            BackendKind::Garnet => Box::new(GarnetNet::new(&topo, &cfg.network)),
        };
        let (probe, counters) = Probe::new(inner, traced);
        let wrapped =
            SystemSim::with_backend(topo.clone(), cfg.system, &cfg.network, Box::new(probe));
        let got = run(wrapped, bytes);
        assert_eq!(got, want, "{backend:?}, traced {traced}");
        let c = counters.borrow();
        assert_eq!(c.traversals, total_traversals(&want.2));
        if traced {
            assert!(c.sends > 0 && c.handles.iter().sum::<u64>() > 0 && c.pushes > 0);
        } else {
            assert_eq!((c.sends, c.span_ns, c.pushes), (0, 0, 0));
        }
    }
}

#[test]
fn probe_is_transparent_on_analytical() {
    assert_transparent(BackendKind::Analytical);
}

#[test]
fn probe_is_transparent_on_garnet() {
    assert_transparent(BackendKind::Garnet);
}

#[test]
fn aborting_garnet_op_is_recorded_as_failed() {
    let label = "garnet 4x4x4 all-reduce 65536";
    let op = Workload::Fig10Garnet
        .ops()
        .into_iter()
        .find(|op| op.label == label)
        .expect("fig10_garnet has the op");
    let OpKind::AllReduce { bytes } = op.kind else {
        panic!("a collective op")
    };

    // The error the simulator itself raises on this op, without the probe.
    let cfg = &op.cfg;
    let mut sim = SystemSim::new(
        cfg.topology.build().expect("topology"),
        cfg.system,
        &cfg.network,
        cfg.backend,
    );
    sim.issue_collective(CollectiveRequest::all_reduce(bytes))
        .expect("issues");
    let error = sim.run_until_idle().expect_err("the op aborts").to_string();

    for traced in [false, true] {
        let run = execute(&op, set_up(&op, traced).expect("set-up"), traced);
        assert_eq!(
            run.outcome,
            Outcome::Failed(error.clone()),
            "traced {traced}"
        );
        assert!(run.events > 0 && run.op_ns > 0);
    }
}

#[test]
fn every_op_is_pinned_except_the_aborting_garnet_ones() {
    let ops: Vec<_> = Workload::ALL.into_iter().flat_map(Workload::ops).collect();
    let pinned = ops
        .iter()
        .filter(|op| pinned::output(&op.label).is_some())
        .count();
    assert_eq!(
        pinned,
        24 + 3 + 1,
        "Fig 10 grid, 3 Garnet ops, 1 training op"
    );
    for op in &ops {
        if op.cfg.backend == BackendKind::Analytical {
            assert!(
                pinned::output(&op.label).is_some(),
                "{} has no pin",
                op.label
            );
        }
    }
}
