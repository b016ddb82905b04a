//! A fixed reference computation that measures the host's current speed.
//!
//! Shared virtual machines change speed by tens of percent over minutes as
//! other tenants come and go, and thread CPU time drifts with wall time, so
//! neither removes it. This kernel uses none of the simulator's code but the
//! same kinds of work: a binary-heap event queue, hashed lookups over a
//! table of tens of megabytes built from fresh memory on every run, and
//! small short-lived allocations. Timed next to each round, it turns a
//! round's host time into a count of reference runs, which cancels most of
//! the drift while any change to the simulator still shows in full.
//!
//! A variant that kept an 8 MB table's memory from run to run tracked the
//! host's speed worse on the analytical workload, so the table is rebuilt.

use astra_des::rng::SplitMix64;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;

/// Iterations of one run.
const ITERATIONS: u64 = 400_000;
/// Host seconds of one run at the nominal speed, about that of a 2-vCPU
/// Xeon KVM guest; `setup_s` is reported at this speed.
pub const NOMINAL_S: f64 = 0.15;
/// Keys of the table: 1 Mi, a few tens of MB with the map's overhead.
const KEY_MASK: u64 = 0xF_FFFF;
/// Events the queue holds in steady state.
const QUEUE_DEPTH: usize = 50_000;

/// One run; its result only feeds `black_box`.
pub fn run() {
    let mut rng = SplitMix64::new(7);
    let mut queue = BinaryHeap::new();
    let mut table: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..ITERATIONS {
        let k = rng.next_u64();
        queue.push(Reverse((k >> 20, i)));
        table.insert(k & KEY_MASK, i);
        if queue.len() > QUEUE_DEPTH {
            if let Some(Reverse((at, seq))) = queue.pop() {
                acc ^= at ^ seq;
            }
        }
        if let Some(v) = table.get(&(rng.next_u64() & KEY_MASK)) {
            acc = acc.wrapping_add(*v);
        }
        let mut scratch = Vec::with_capacity((k & 63) as usize + 1);
        scratch.push(acc);
        acc ^= black_box(scratch)[0];
    }
    black_box(acc);
}
