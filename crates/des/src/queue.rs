//! The central event queue.
//!
//! # Design: one FIFO per pending timestamp
//!
//! The simulator's traffic comes in lockstep waves: a symmetric collective
//! advances every NPU by one step at the same simulated instant, so
//! hundreds of events share each timestamp and about 99.5% of pops have the
//! same timestamp as the pop before them. The queue is shaped for that:
//!
//! * a min-heap over the **distinct** pending timestamps (a handful to a
//!   few hundred, where events number in the thousands);
//! * an [`IdMap`] from each pending timestamp to its bucket, a [`Fifo`];
//! * every bucket's payloads threaded through one shared [`Fifos`] arena,
//!   so cells freed by pops are reused and the steady state allocates
//!   nothing.
//!
//! [`EventQueue::pop`] takes the head of the earliest bucket and touches
//! the time heap only when that bucket empties; [`EventQueue::schedule_at`]
//! appends to its timestamp's bucket, opening one (and pushing the time
//! onto the heap) if none is pending.
//!
//! # Ordering contract
//!
//! Events pop in `(time, seq)` order, where `seq` is the order of the
//! `schedule_*` calls: earliest time first, and same-time events in the
//! order they were scheduled. This holds by construction — a bucket is a
//! FIFO, and an event scheduled at `now` while `now`'s bucket is still
//! draining joins the back of that bucket. With the `conform-checks`
//! feature, every pop asserts the order against an explicit `seq`.

use crate::{Fifo, Fifos, IdMap, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// A queued payload; carries its scheduling sequence number only when the
/// `conform-checks` pop-order assert needs it.
struct Pending<E> {
    #[cfg(feature = "conform-checks")]
    seq: u64,
    payload: E,
}

/// A deterministic future-event list.
///
/// Events are `(Time, E)` pairs ordered by time; same-time events pop in
/// scheduling order (stable FIFO tie-break). The queue tracks the current
/// simulation time [`EventQueue::now`], which advances monotonically as
/// events are popped. The module documentation describes the bucketed
/// layout.
///
/// # Example
///
/// ```
/// use astra_des::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule_in(Time::from_cycles(3), 1u32);
/// q.schedule_in(Time::ZERO, 2u32); // fires "now"
/// assert_eq!(q.pop(), Some((Time::ZERO, 2)));
/// assert_eq!(q.pop(), Some((Time::from_cycles(3), 1)));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Every timestamp with a bucket in `buckets`, earliest on top.
    times: BinaryHeap<Reverse<Time>>,
    /// Each pending timestamp's FIFO; never holds an empty one.
    buckets: IdMap<Time, Fifo>,
    /// The cells of every bucket.
    cells: Fifos<Pending<E>>,
    now: Time,
    popped: u64,
    /// Next scheduling sequence number, and the `(time, seq)` of the most
    /// recent pop, for the conformance harness's monotonicity /
    /// FIFO-stability invariant (see `conform-checks`).
    #[cfg(feature = "conform-checks")]
    seq: u64,
    #[cfg(feature = "conform-checks")]
    last_pop: Option<(Time, u64)>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero. Allocates nothing until the
    /// first event is scheduled.
    pub fn new() -> Self {
        EventQueue {
            times: BinaryHeap::new(),
            buckets: IdMap::default(),
            cells: Fifos::default(),
            now: Time::ZERO,
            popped: 0,
            #[cfg(feature = "conform-checks")]
            seq: 0,
            #[cfg(feature = "conform-checks")]
            last_pop: None,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (zero before the first pop).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`, after every event
    /// already scheduled for `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`EventQueue::now`]); a DES must
    /// never schedule backwards in time.
    pub fn schedule_at(&mut self, at: Time, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        #[cfg(feature = "conform-checks")]
        let seq = {
            self.seq += 1;
            self.seq - 1
        };
        let pending = Pending {
            #[cfg(feature = "conform-checks")]
            seq,
            payload,
        };
        let times = &mut self.times;
        let bucket = self.buckets.entry(at).or_insert_with(|| {
            times.push(Reverse(at));
            Fifo::default()
        });
        self.cells.push_back(bucket, pending);
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Time, payload: E) {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulation time overflow");
        self.schedule_at(at, payload);
    }

    /// Removes and returns the earliest event, advancing [`EventQueue::now`]
    /// to its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let &Reverse(time) = self.times.peek()?;
        let bucket = self
            .buckets
            .get_mut(&time)
            .expect("every pending time has a bucket");
        let pending = self
            .cells
            .pop_front(bucket)
            .expect("pending buckets are never empty");
        if bucket.is_empty() {
            self.buckets.remove(&time);
            self.times.pop();
        }
        debug_assert!(time >= self.now, "event queue yielded a past event");
        #[cfg(feature = "conform-checks")]
        {
            if let Some((last_time, last_seq)) = self.last_pop {
                assert!(
                    (time, pending.seq) > (last_time, last_seq),
                    "conform-checks: event queue pop order violated: \
                     popped (t={}, seq={}) after (t={}, seq={})",
                    time,
                    pending.seq,
                    last_time,
                    last_seq
                );
            }
            self.last_pop = Some((time, pending.seq));
        }
        self.now = time;
        self.popped += 1;
        Some((time, pending.payload))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.times.peek().map(|&Reverse(t)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total number of events popped since construction (a cheap progress /
    /// throughput metric for the bench harness).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("processed", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_cycles(30), 'c');
        q.schedule_at(Time::from_cycles(10), 'a');
        q.schedule_at(Time::from_cycles(20), 'b');
        let out: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, vec!['a', 'b', 'c']);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(Time::from_cycles(5), i);
        }
        let out: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(Time::from_cycles(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_cycles(7));
        // schedule_in is now relative to t=7.
        q.schedule_in(Time::from_cycles(3), ());
        assert_eq!(q.peek_time(), Some(Time::from_cycles(10)));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_cycles(10), ());
        q.pop();
        q.schedule_at(Time::from_cycles(5), ());
    }

    #[test]
    fn len_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_in(Time::ZERO, 1);
        q.schedule_in(Time::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.events_processed(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_cycles(1), 1);
        q.schedule_at(Time::from_cycles(5), 5);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule_at(Time::from_cycles(3), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 5);
    }

    #[test]
    fn drain_and_refill_reuses_cells() {
        let mut q = EventQueue::new();
        for round in 0..3u64 {
            for i in 0..64u64 {
                q.schedule_in(Time::from_cycles(i % 4), i);
            }
            while q.pop().is_some() {}
            assert!(q.is_empty());
            assert_eq!(q.cells.capacity_used(), 64, "round {round}");
        }
    }
}
