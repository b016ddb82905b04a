//! Steady-state allocation gate for the send/receive path.
//!
//! Once a simulator has run one collective, its caches (routes), maps
//! (in-flight messages, packets, collectives) and scratch buffers have
//! grown to size, so an identical second collective must run without
//! allocating per event. This binary installs a counting global allocator
//! that counts on each thread separately, so tests running in parallel do
//! not see each other's allocations.

use astra_network::NetworkConfig;
use astra_system::{BackendKind, CollectiveRequest, SystemConfig, SystemSim};
use astra_topology::{LogicalTopology, Torus3d};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs two identical all-reduces of `bytes` on one simulator and returns
/// (events, allocations) of the `step()` calls of the second.
fn second_collective(topo: LogicalTopology, backend: BackendKind, bytes: u64) -> (u64, u64) {
    let mut sim = SystemSim::new(
        topo,
        SystemConfig::default(),
        &NetworkConfig::default(),
        backend,
    );
    let warm = sim
        .issue_collective(CollectiveRequest::all_reduce(bytes))
        .unwrap();
    while sim.run_until_notification().unwrap().is_some() {}
    assert!(sim.report(warm).is_some(), "warm-up collective finished");

    let id = sim
        .issue_collective(CollectiveRequest::all_reduce(bytes))
        .unwrap();
    let events_before = sim.events_processed();
    let allocs_before = allocations();
    while sim.step().unwrap() {}
    let allocs = allocations() - allocs_before;
    let events = sim.events_processed() - events_before;
    assert!(sim.report(id).is_some(), "measured collective finished");
    (events, allocs)
}

fn assert_allocation_free(what: &str, (events, allocs): (u64, u64)) {
    assert!(events > 1_000, "{what}: only {events} events");
    assert!(
        allocs * 1_000 <= events,
        "{what}: {allocs} allocations over {events} events (gate: 1 per 1,000)"
    );
}

#[test]
fn analytical_steady_state_is_allocation_free() {
    let topo = LogicalTopology::torus(Torus3d::new(2, 8, 4, 2, 2, 2).unwrap());
    assert_allocation_free(
        "analytical 2x8x4 1 MiB all-reduce",
        second_collective(topo, BackendKind::Analytical, 1 << 20),
    );
}

#[test]
fn garnet_steady_state_is_allocation_free() {
    let topo = LogicalTopology::torus(Torus3d::new(1, 8, 1, 2, 2, 2).unwrap());
    assert_allocation_free(
        "garnet 1x8x1 4 KiB all-reduce",
        second_collective(topo, BackendKind::Garnet, 4 << 10),
    );
}
