//! Property tests for the DES kernel's ordering guarantees.

use astra_des::{EventQueue, Time};
use proptest::prelude::*;

proptest! {
    /// Events always pop in nondecreasing time order, regardless of
    /// scheduling order.
    #[test]
    fn pops_are_time_ordered(delays in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &d) in delays.iter().enumerate() {
            q.schedule_at(Time::from_cycles(d), i);
        }
        let mut last = Time::ZERO;
        let mut seen = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            seen += 1;
        }
        prop_assert_eq!(seen, delays.len());
    }

    /// Same-timestamp events pop in scheduling (FIFO) order.
    #[test]
    fn ties_break_fifo(groups in proptest::collection::vec((0u64..50, 1usize..10), 1..30)) {
        let mut q = EventQueue::new();
        let mut idx = 0usize;
        for &(t, count) in &groups {
            for _ in 0..count {
                q.schedule_at(Time::from_cycles(t), (t, idx));
                idx += 1;
            }
        }
        let mut per_time: std::collections::HashMap<u64, usize> = Default::default();
        while let Some((t, (raw, i))) = q.pop() {
            prop_assert_eq!(t.cycles(), raw);
            let last = per_time.entry(raw).or_insert(0);
            // Indices at the same timestamp must be increasing.
            prop_assert!(i >= *last);
            *last = i;
        }
    }

    /// Interleaving schedule/pop never loses or duplicates events.
    #[test]
    fn conservation_under_interleaving(
        ops in proptest::collection::vec((any::<bool>(), 0u64..1000), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut scheduled = 0u64;
        let mut popped = 0u64;
        for &(do_pop, delay) in &ops {
            if do_pop {
                if q.pop().is_some() {
                    popped += 1;
                }
            } else {
                q.schedule_in(Time::from_cycles(delay), ());
                scheduled += 1;
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(scheduled, popped);
        prop_assert_eq!(q.events_processed(), popped);
    }
}

/// One step of a differential run: pop, or schedule a fresh payload at an
/// offset from `now` through either entry point.
#[derive(Debug, Clone, Copy)]
enum Op {
    Pop,
    At(u64),
    In(u64),
}

/// Offsets skewed toward what the simulator does: mostly `now` itself or a
/// few cycles ahead (long runs of equal timestamps, pushes into a bucket
/// that is still draining, refills of one that just emptied), with some
/// far-future events.
fn op(kind: u8, raw: u64) -> Op {
    match kind {
        0..=3 => Op::Pop,
        4 => Op::At(0),
        5 => Op::In(raw % 4),
        6 => Op::At(raw % 16),
        7 => Op::In((1 << 40) + raw),
        _ => Op::At(raw),
    }
}

proptest! {
    /// The queue pops exactly what a reference `(time, seq)` binary heap
    /// pops, and agrees with it on `now`, `len`, `peek_time` and
    /// `events_processed` after every operation.
    #[test]
    fn matches_time_seq_reference_heap(
        raw_ops in proptest::collection::vec((0u8..10, 0u64..1000), 1..400)
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let (mut now, mut popped, mut seq) = (0u64, 0u64, 0u64);
        // Drain everything at the end so every payload's order is checked.
        let drain = std::iter::repeat_n(Op::Pop, raw_ops.len());
        for step in raw_ops.iter().map(|&(k, raw)| op(k, raw)).chain(drain) {
            match step {
                Op::Pop => {
                    let want = reference.pop().map(|Reverse((t, _, p))| {
                        now = t;
                        popped += 1;
                        (Time::from_cycles(t), p)
                    });
                    prop_assert_eq!(q.pop(), want);
                }
                Op::At(offset) | Op::In(offset) => {
                    let payload = seq as u32;
                    reference.push(Reverse((now + offset, seq, payload)));
                    seq += 1;
                    if let Op::At(_) = step {
                        q.schedule_at(Time::from_cycles(now + offset), payload);
                    } else {
                        q.schedule_in(Time::from_cycles(offset), payload);
                    }
                }
            }
            prop_assert_eq!(q.now(), Time::from_cycles(now));
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.is_empty(), reference.is_empty());
            prop_assert_eq!(
                q.peek_time(),
                reference.peek().map(|Reverse((t, _, _))| Time::from_cycles(*t))
            );
            prop_assert_eq!(q.events_processed(), popped);
        }
        prop_assert!(q.is_empty());
    }
}
