//! Epoch-sequenced publication cell.
//!
//! `EpochCell<T>` is the safe-Rust equivalent of an arc-swap: a single
//! logical cell whose value is replaced atomically by writers and read
//! without blocking on the writer's critical section. It exists so the
//! transaction layer can publish a new `Arc<Database>` image without
//! readers ever queueing behind validation, WAL appends, or fsync stalls.
//!
//! # Protocol
//!
//! The cell keeps a monotonically increasing `epoch` counter and a fixed
//! ring of `SLOTS` value slots, each tagged with the epoch it holds.
//! Publication `e` stores its value into slot `e % SLOTS` *before* bumping
//! the epoch with `Release` ordering; readers load the epoch with
//! `Acquire` and clone out of the slot it names. Because a writer for
//! epoch `e` never touches slot `(e - 1) % SLOTS`, a reader that observed
//! epoch `e - 1` copies its value out of a slot no in-flight publication
//! is writing — readers are wait-free in practice. Only if writers lap the
//! entire ring between a reader's epoch load and its slot lock does the
//! slot hold a later epoch, possibly one not yet published; the reader
//! then reloads the epoch and retries rather than return a value that a
//! later read could precede.
//!
//! Writers are serialized by an internal ticket so the cell is safe to use
//! standalone; `mad_txn` additionally serializes publications under its
//! commit ticket, which is what assigns commit sequence numbers.
//!
//! # Invariants
//!
//! 1. The epoch only increases, and slot `e % SLOTS` holds the value of
//!    some epoch `>= e` whenever `epoch >= e`.
//! 2. A reader returns the value of exactly the epoch it loaded, which
//!    was published: reads are monotone and never torn.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Number of slots in the publication ring. Large enough that a writer
/// lapping a mid-clone reader requires SLOTS full publications during one
/// `clone()` — effectively never for `Arc` values.
const SLOTS: usize = 64;

/// A wait-free-reader publication cell. See the module docs for the
/// protocol and its invariants.
pub struct EpochCell<T> {
    epoch: AtomicU64,
    /// `(epoch, value)` per slot; slot `e % SLOTS` holds epoch `e` or a
    /// later one.
    slots: Vec<Mutex<Option<(u64, T)>>>,
    /// Serializes writers; held only for the slot store + epoch bump.
    ticket: Mutex<()>,
}

impl<T: Clone> EpochCell<T> {
    /// Create a cell publishing `initial` at epoch 0.
    pub fn new(initial: T) -> Self {
        let mut slots = Vec::with_capacity(SLOTS);
        slots.push(Mutex::new(Some((0, initial))));
        for _ in 1..SLOTS {
            slots.push(Mutex::new(None));
        }
        EpochCell { epoch: AtomicU64::new(0), slots, ticket: Mutex::new(()) }
    }

    /// Current publication epoch. Monotone; `Acquire` so a caller that
    /// observes epoch `e` also observes the slot contents for `e`.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clone the current value. Never blocks on an in-flight publication
    /// of the *next* epoch, and never returns a value ahead of the
    /// published epoch (reads are monotone).
    pub fn read(&self) -> T {
        loop {
            let e = self.epoch.load(Ordering::Acquire);
            let slot = self
                .slots
                .get(e as usize % SLOTS)
                .expect("slot index is taken modulo the ring size") // check: allow(panic, "index is e % SLOTS, always in range")
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let (held, value) = slot
                .as_ref()
                .expect("published slot holds a value for every epoch <= current"); // check: allow(panic, "invariant 1: slot e % SLOTS is populated before epoch reaches e")
            if *held == e {
                return value.clone();
            }
            // writers lapped the ring since `e` was loaded: retry
        }
    }

    /// Publish a new value, returning the epoch it was published at.
    /// Writers are serialized; the critical section is one slot store and
    /// one atomic bump — no I/O, no validation.
    pub fn publish(&self, value: T) -> u64 {
        let _t = self.ticket.lock().unwrap_or_else(PoisonError::into_inner);
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        {
            let mut slot = self
                .slots
                .get(next as usize % SLOTS)
                .expect("slot index is taken modulo the ring size") // check: allow(panic, "index is next % SLOTS, always in range")
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *slot = Some((next, value));
        }
        self.epoch.store(next, Ordering::Release);
        next
    }
}

impl<T: Clone + std::fmt::Debug> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCell").field("epoch", &self.epoch()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn publishes_and_reads_round_trip() {
        let cell = EpochCell::new(0u64);
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.read(), 0);
        for i in 1..=200u64 {
            let e = cell.publish(i);
            assert_eq!(e, i);
            assert_eq!(cell.read(), i);
        }
        assert_eq!(cell.epoch(), 200);
    }

    #[test]
    fn reads_are_monotone_under_concurrent_publication() {
        let cell = Arc::new(EpochCell::new(0u64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            readers.push(thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = cell.read();
                    assert!(v >= last, "read went backwards: {v} < {last}");
                    last = v;
                }
                last
            }));
        }
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                for i in 1..=10_000u64 {
                    cell.publish(i);
                }
            })
        };
        writer.join().expect("writer");
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let last = r.join().expect("reader");
            assert!(last <= 10_000);
        }
        assert_eq!(cell.read(), 10_000);
    }

    #[test]
    fn concurrent_writers_serialize_and_lose_no_epochs() {
        let cell = Arc::new(EpochCell::new(0u32));
        let mut writers = Vec::new();
        for _ in 0..8 {
            let cell = Arc::clone(&cell);
            writers.push(thread::spawn(move || {
                for _ in 0..1_000 {
                    cell.publish(1);
                }
            }));
        }
        for w in writers {
            w.join().expect("writer");
        }
        assert_eq!(cell.epoch(), 8_000);
    }
}
