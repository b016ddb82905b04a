//! Many FIFOs threaded through one shared slab of cells.
//!
//! A simulation keeps far more queues than it has queued items: one per
//! virtual channel of every link, or one per pending timestamp. A growable
//! buffer per queue would allocate the first time each one is used; linked
//! lists in one [`Slab`] allocate only when the total number of queued
//! items reaches a new peak, and a popped cell is reused by the next push.

use crate::{Slab, SlabKey};

/// One FIFO: the ends of a linked list in a [`Fifos`] arena, plus its
/// length. `Copy` and 24 bytes, so it embeds in per-link or per-timestamp
/// state; it must only ever be used with the arena it was filled from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fifo {
    head: Option<SlabKey>,
    tail: Option<SlabKey>,
    len: usize,
}

impl Fifo {
    /// Whether no item is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }
}

/// A queued item and the next item of the same FIFO.
#[derive(Debug)]
struct Cell<T> {
    value: T,
    next: Option<SlabKey>,
}

/// The cells of every [`Fifo`] that shares this arena. Allocates nothing
/// until the first push.
#[derive(Debug)]
pub struct Fifos<T> {
    cells: Slab<Cell<T>>,
}

impl<T> Default for Fifos<T> {
    fn default() -> Self {
        Fifos { cells: Slab::new() }
    }
}

impl<T> Fifos<T> {
    /// Appends `value` to the back of `fifo`.
    pub fn push_back(&mut self, fifo: &mut Fifo, value: T) {
        let key = self.cells.insert(Cell { value, next: None });
        match fifo.tail {
            Some(tail) => {
                self.cells
                    .get_mut(tail)
                    .expect("fifo tail is a live cell")
                    .next = Some(key);
            }
            None => fifo.head = Some(key),
        }
        fifo.tail = Some(key);
        fifo.len += 1;
    }

    /// Removes and returns the item at the front of `fifo`.
    pub fn pop_front(&mut self, fifo: &mut Fifo) -> Option<T> {
        let head = fifo.head?;
        let cell = self.cells.remove(head).expect("fifo head is a live cell");
        fifo.head = cell.next;
        if fifo.head.is_none() {
            fifo.tail = None;
        }
        fifo.len -= 1;
        Some(cell.value)
    }

    /// Items queued across every FIFO of the arena.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether every FIFO of the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cells ever allocated (live + recyclable): the arena's high-water
    /// mark.
    pub fn capacity_used(&self) -> usize {
        self.cells.capacity_used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queues_sharing_an_arena_stay_fifo() {
        let mut arena = Fifos::default();
        let (mut a, mut b) = (Fifo::default(), Fifo::default());
        for seq in 0..3 {
            arena.push_back(&mut a, seq);
            arena.push_back(&mut b, 10 + seq);
        }
        assert_eq!(arena.pop_front(&mut a), Some(0));
        arena.push_back(&mut a, 3);
        assert_eq!(a.len(), 3);
        let drained: Vec<u64> = std::iter::from_fn(|| arena.pop_front(&mut a)).collect();
        assert_eq!(drained, [1, 2, 3]);
        assert!(a.is_empty());
        assert_eq!(arena.pop_front(&mut a), None);
        assert_eq!(arena.pop_front(&mut b), Some(10));
        assert_eq!(b.len(), 2);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn popped_cells_are_reused() {
        let mut arena = Fifos::default();
        let mut q = Fifo::default();
        for seq in 0..4 {
            arena.push_back(&mut q, seq);
        }
        while arena.pop_front(&mut q).is_some() {}
        assert!(arena.is_empty());
        for seq in 0..4 {
            arena.push_back(&mut q, seq);
        }
        assert_eq!(arena.capacity_used(), 4);
    }
}
