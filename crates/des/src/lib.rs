//! # astra-des
//!
//! A small, deterministic discrete-event simulation (DES) kernel.
//!
//! This crate is the execution substrate of the ASTRA-sim reproduction: every
//! other layer (network, system, workload) schedules its work as events on an
//! [`EventQueue`]. The paper describes ASTRA-sim as using "an event driven
//! execution model — we use a separate event queue implemented in the system
//! layer" (§IV); this crate factors that queue out into a reusable,
//! well-tested component.
//!
//! Design goals:
//!
//! * **Determinism.** Events pop in `(time, scheduling order)` order: two
//!   events scheduled for the same timestamp pop in the order they were
//!   scheduled. There is no reliance on wall-clock time or hash iteration
//!   order, so a simulation is a pure function of its inputs.
//! * **Shaped for lockstep traffic.** Symmetric collectives advance in
//!   waves of hundreds of events per timestamp (about 99.5% of pops share
//!   the previous pop's timestamp), so the queue keeps one FIFO bucket per
//!   pending timestamp and a heap over the few distinct timestamps rather
//!   than a heap over every event. All buckets share one slab of cells
//!   ([`Fifos`], the same type behind Garnet's virtual-channel queues), so
//!   the steady state allocates nothing.
//! * **Zero-cost genericity.** The queue is generic over the event payload
//!   `E`; each simulation layer defines its own event enum.
//! * **No interior mutability.** The kernel hands events back to the caller;
//!   components are plain `&mut` state.
//!
//! ## Example
//!
//! ```
//! use astra_des::{EventQueue, Time};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule_in(Time::from_cycles(10), "b");
//! q.schedule_in(Time::from_cycles(5), "a");
//! let mut order = Vec::new();
//! while let Some((t, ev)) = q.pop() {
//!     order.push((t.cycles(), ev));
//! }
//! assert_eq!(order, vec![(5, "a"), (10, "b")]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod fifo;
pub mod hash;
mod idmap;
mod queue;
pub mod rng;
mod slab;
pub mod stats;
mod time;

pub use clock::Clock;
pub use fifo::{Fifo, Fifos};
pub use idmap::{IdBuildHasher, IdHasher, IdMap, IdSet};
pub use queue::EventQueue;
pub use slab::{Slab, SlabKey};
pub use time::Time;
