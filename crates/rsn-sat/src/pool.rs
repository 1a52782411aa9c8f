//! Lock-light shared learnt-clause pool for portfolio solving.
//!
//! A fixed-capacity ring of sequence-stamped slots. Writers claim a
//! monotonically increasing sequence number and overwrite the slot at
//! `seq % capacity`; readers scan for slots stamped after their last
//! import. Both sides use `try_lock` on the per-slot mutex and simply
//! skip on contention — losing a clause (or reading one twice) is always
//! sound because every shared clause is implied by the formula alone, so
//! no path ever blocks on another worker.
//!
//! Memory ordering: the slot stamp is stored with `Release` *while the
//! slot mutex is held*, and readers load it with `Acquire` before taking
//! the same mutex, so a reader that observes stamp `s` and wins the lock
//! sees the clause data of stamp `s` or newer — never a torn or stale
//! clause. A worker thread killed mid-publish (chaos testing) poisons
//! only one slot mutex; both sides recover the guard with
//! [`std::sync::PoisonError::into_inner`], and slot data is always left
//! whole because the stamp/data pair is written under the lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, TryLockError};

use crate::lit::Lit;

/// Only clauses this short are worth the sharing traffic.
pub const MAX_SHARED_LEN: usize = 12;
/// Only clauses at most this "glued" (LBD) are shared.
pub const MAX_SHARED_LBD: u32 = 6;

#[derive(Default)]
struct SlotData {
    lits: Vec<Lit>,
    lbd: u32,
    author: usize,
}

struct Slot {
    /// Sequence number of the clause currently in the slot; 0 = empty.
    stamp: AtomicU64,
    data: Mutex<SlotData>,
}

/// A fixed-capacity ring of short learnt clauses shared between
/// portfolio workers. See the module docs for the protocol.
pub(crate) struct ClausePool {
    slots: Vec<Slot>,
    /// Next sequence number to hand out, minus one: the stamp of the
    /// youngest published clause.
    next_seq: AtomicU64,
    imports: AtomicU64,
    exports: AtomicU64,
}

impl ClausePool {
    /// Creates a pool holding at most `capacity` clauses (older entries
    /// are overwritten ring-wise).
    pub fn new(capacity: usize) -> ClausePool {
        let capacity = capacity.max(1);
        ClausePool {
            slots: (0..capacity)
                .map(|_| Slot {
                    stamp: AtomicU64::new(0),
                    data: Mutex::new(SlotData::default()),
                })
                .collect(),
            next_seq: AtomicU64::new(0),
            imports: AtomicU64::new(0),
            exports: AtomicU64::new(0),
        }
    }

    /// Clauses successfully published so far.
    pub fn exports(&self) -> u64 {
        self.exports.load(Ordering::Relaxed)
    }

    /// Clauses handed to importing workers so far (one clause imported
    /// by three workers counts three).
    pub fn imports(&self) -> u64 {
        self.imports.load(Ordering::Relaxed)
    }

    /// Publishes a learnt clause if it passes the sharing filter
    /// (`1 ≤ len ≤ 12`, LBD ≤ 6). Returns `true` if the clause landed in
    /// a slot; contention drops the clause rather than blocking.
    pub fn publish(&self, lits: &[Lit], lbd: u32, author: usize) -> bool {
        if lits.is_empty() || lits.len() > MAX_SHARED_LEN || lbd > MAX_SHARED_LBD {
            return false;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::AcqRel) + 1;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut guard = match slot.data.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return false,
        };
        guard.lits.clear();
        guard.lits.extend_from_slice(lits);
        guard.lbd = lbd;
        guard.author = author;
        // Publish the stamp while still holding the data lock (see the
        // module docs for why the ordering matters).
        slot.stamp.store(seq, Ordering::Release);
        drop(guard);
        self.exports.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Collects every clause stamped after `last_seen` that was not
    /// authored by `author` into `out` and returns the new watermark to
    /// pass as `last_seen` next time. Slots locked by a concurrent
    /// writer are skipped (their clause is younger than the returned
    /// watermark and therefore lost to this worker — sound, see module
    /// docs).
    pub fn collect_since(
        &self,
        last_seen: u64,
        author: usize,
        out: &mut Vec<(Vec<Lit>, u32)>,
    ) -> u64 {
        let watermark = self.next_seq.load(Ordering::Acquire);
        if watermark == last_seen {
            return watermark;
        }
        for slot in &self.slots {
            if slot.stamp.load(Ordering::Acquire) <= last_seen {
                continue;
            }
            let guard = match slot.data.try_lock() {
                Ok(g) => g,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => continue,
            };
            if guard.author == author || guard.lits.is_empty() {
                continue;
            }
            out.push((guard.lits.clone(), guard.lbd));
        }
        self.imports.fetch_add(out.len() as u64, Ordering::Relaxed);
        watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(codes: &[u32]) -> Vec<Lit> {
        codes.iter().map(|&v| Lit::pos(Var(v))).collect()
    }

    #[test]
    fn publish_collect_roundtrip() {
        let pool = ClausePool::new(8);
        assert!(pool.publish(&lits(&[0, 1]), 2, 0));
        assert!(pool.publish(&lits(&[2, 3, 4]), 3, 0));
        let mut got = Vec::new();
        let mark = pool.collect_since(0, 1, &mut got);
        assert_eq!(mark, 2);
        assert_eq!(got.len(), 2);
        assert_eq!(pool.exports(), 2);
        assert_eq!(pool.imports(), 2);
        // Nothing new since the watermark.
        let mut again = Vec::new();
        assert_eq!(pool.collect_since(mark, 1, &mut again), mark);
        assert!(again.is_empty());
    }

    #[test]
    fn own_clauses_are_skipped() {
        let pool = ClausePool::new(8);
        pool.publish(&lits(&[0, 1]), 2, 7);
        let mut got = Vec::new();
        pool.collect_since(0, 7, &mut got);
        assert!(got.is_empty(), "a worker must not re-import its own clause");
    }

    #[test]
    fn filter_rejects_long_or_high_lbd_clauses() {
        let pool = ClausePool::new(8);
        assert!(!pool.publish(&lits(&(0..13).collect::<Vec<_>>()), 2, 0));
        assert!(!pool.publish(&lits(&[0, 1]), MAX_SHARED_LBD + 1, 0));
        assert!(!pool.publish(&[], 1, 0));
        assert_eq!(pool.exports(), 0);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let pool = ClausePool::new(2);
        for i in 0..5u32 {
            assert!(pool.publish(&lits(&[i, i + 10]), 2, 0));
        }
        let mut got = Vec::new();
        let mark = pool.collect_since(0, 1, &mut got);
        assert_eq!(mark, 5);
        assert_eq!(got.len(), 2, "ring keeps only the youngest `capacity`");
    }

    #[test]
    fn concurrent_hammer_stays_consistent() {
        let pool = ClausePool::new(64);
        std::thread::scope(|scope| {
            for author in 0..4usize {
                let pool = &pool;
                scope.spawn(move || {
                    let mut seen = 0u64;
                    for i in 0..500u32 {
                        pool.publish(&lits(&[i % 7, 7 + (i % 5)]), 1 + (i % 6), author);
                        if i % 50 == 0 {
                            let mut buf = Vec::new();
                            seen = pool.collect_since(seen, author, &mut buf);
                            for (c, lbd) in buf {
                                assert!(!c.is_empty() && c.len() <= MAX_SHARED_LEN);
                                assert!(lbd <= MAX_SHARED_LBD);
                            }
                        }
                    }
                });
            }
        });
        assert!(pool.exports() > 0);
    }
}
