//! Dense, read-mostly slot tables keyed by small integer ids.
//!
//! Simulated thread ids and context ids are handed out sequentially from 1,
//! so the natural map for per-thread / per-context state is a dense array,
//! not a hash map behind one global mutex. [`SlotTable`] stores each id in
//! its own lock so readers on different ids never contend, and readers on
//! the *same* id only take an uncontended per-slot read lock — the same
//! read-mostly discipline as [`crate::intern::FnTable`], generalised to
//! mutable values.
//!
//! Chunks are allocated on demand (ids cluster near zero but sessions churn
//! them upward); ids beyond the dense range fall back to a shared hash map
//! so the table never rejects a key.

use std::collections::HashMap;
use std::sync::OnceLock;

use parking_lot::RwLock;

/// Slots per lazily-allocated chunk.
const CHUNK: usize = 64;
/// Number of chunks, giving `CHUNK * MAX_CHUNKS` dense ids before the
/// overflow map engages.
const MAX_CHUNKS: usize = 64;

/// One lazily-allocated block of `CHUNK` slots.
type Chunk<T> = Box<[RwLock<Option<T>>]>;

/// A concurrent map from small integer ids to values, optimised for the
/// read-mostly access pattern of per-thread bindings.
///
/// # Examples
///
/// ```
/// use cycada_sim::slots::SlotTable;
///
/// let table: SlotTable<u32> = SlotTable::new();
/// assert_eq!(table.set(3, Some(7)), None);
/// assert_eq!(table.get(3), Some(7));
/// assert_eq!(table.set(3, None), Some(7));
/// assert_eq!(table.get(3), None);
/// ```
pub struct SlotTable<T> {
    chunks: [OnceLock<Chunk<T>>; MAX_CHUNKS],
    overflow: RwLock<HashMap<u64, T>>,
}

impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlotTable<T> {
    /// Creates an empty table. No chunk memory is allocated until first use.
    pub fn new() -> Self {
        SlotTable {
            chunks: [const { OnceLock::new() }; MAX_CHUNKS],
            overflow: RwLock::new(HashMap::new()),
        }
    }

    fn slot(&self, id: u64) -> Option<&RwLock<Option<T>>> {
        // Bounds-check in u64 BEFORE narrowing: casting first would let
        // ids above usize::MAX wrap (on 32-bit hosts id 2^32+3 would alias
        // dense slot 3) and route overflow keys onto dense slots.
        if id >= (CHUNK * MAX_CHUNKS) as u64 {
            return None;
        }
        let idx = id as usize;
        let chunk = idx / CHUNK;
        // Chunk publication races with concurrent lookups on the same
        // chunk; mark it so the model checker can interleave here.
        crate::check::schedule_point(
            "slots.chunk",
            std::ptr::from_ref(&self.chunks[chunk]) as usize,
            crate::check::Access::Read,
        );
        let slots = self.chunks[chunk].get_or_init(|| {
            (0..CHUNK).map(|_| RwLock::new(None)).collect()
        });
        Some(&slots[idx % CHUNK])
    }

    /// Returns the number of occupied slots. O(allocated slots) — meant for
    /// diagnostics, not hot paths.
    pub fn len(&self) -> usize {
        let dense: usize = self
            .chunks
            .iter()
            .filter_map(|c| c.get())
            .flat_map(|slots| slots.iter())
            .filter(|slot| slot.read().is_some())
            .count();
        dense + self.overflow.read().len()
    }

    /// Returns `true` if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Clone> SlotTable<T> {
    /// Reads the value at `id`, cloning it out from under the per-slot lock.
    pub fn get(&self, id: u64) -> Option<T> {
        match self.slot(id) {
            Some(slot) => slot.read().clone(),
            None => self.overflow.read().get(&id).cloned(),
        }
    }

    /// Stores `value` at `id` (`None` clears the slot), returning the
    /// previous value.
    pub fn set(&self, id: u64, value: Option<T>) -> Option<T> {
        match self.slot(id) {
            Some(slot) => std::mem::replace(&mut *slot.write(), value),
            None => {
                let mut overflow = self.overflow.write();
                match value {
                    Some(v) => overflow.insert(id, v),
                    None => overflow.remove(&id),
                }
            }
        }
    }

    /// Clears every slot whose value fails the predicate.
    pub fn retain(&self, mut keep: impl FnMut(&T) -> bool) {
        for chunk in self.chunks.iter().filter_map(|c| c.get()) {
            for slot in chunk.iter() {
                let mut guard = slot.write();
                if matches!(&*guard, Some(v) if !keep(v)) {
                    *guard = None;
                }
            }
        }
        self.overflow.write().retain(|_, v| keep(v));
    }
}

impl<T> std::fmt::Debug for SlotTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotTable").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn set_get_clear_roundtrip() {
        let t: SlotTable<String> = SlotTable::new();
        assert_eq!(t.get(1), None);
        assert_eq!(t.set(1, Some("a".into())), None);
        assert_eq!(t.set(1, Some("b".into())), Some("a".into()));
        assert_eq!(t.get(1), Some("b".into()));
        assert_eq!(t.set(1, None), Some("b".into()));
        assert!(t.is_empty());
    }

    #[test]
    fn ids_beyond_dense_range_use_overflow() {
        let huge = (CHUNK * MAX_CHUNKS) as u64 + 17;
        let t: SlotTable<u32> = SlotTable::new();
        assert_eq!(t.set(huge, Some(9)), None);
        assert_eq!(t.get(huge), Some(9));
        assert_eq!(t.len(), 1);
        t.retain(|v| *v != 9);
        assert_eq!(t.get(huge), None);
    }

    #[test]
    fn retain_filters_dense_slots() {
        let t: SlotTable<u32> = SlotTable::new();
        for i in 0..10 {
            t.set(i, Some(i as u32));
        }
        t.retain(|v| v % 2 == 0);
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(3), None);
        assert_eq!(t.get(4), Some(4));
    }

    #[test]
    fn len_spans_chunk_boundaries() {
        let t: SlotTable<u8> = SlotTable::new();
        t.set(0, Some(1));
        t.set(CHUNK as u64, Some(2));
        t.set((3 * CHUNK) as u64 + 5, Some(3));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn overflow_set_none_removes_instead_of_pinning() {
        let dense_limit = (CHUNK * MAX_CHUNKS) as u64;
        let t: SlotTable<u32> = SlotTable::new();
        let id = dense_limit + 5;
        assert_eq!(t.set(id, Some(1)), None);
        assert_eq!(t.set(id, None), Some(1), "clearing returns the old value");
        assert_eq!(t.get(id), None);
        assert_eq!(
            t.overflow.read().len(),
            0,
            "set(id, None) must remove the overflow entry, not pin a tombstone"
        );
    }

    #[test]
    fn dense_overflow_boundary_ids_do_not_alias() {
        let dense_limit = (CHUNK * MAX_CHUNKS) as u64;
        let t: SlotTable<u64> = SlotTable::new();
        // The last dense id, the first overflow id, and ids that would
        // alias dense slots if the bounds check narrowed before comparing
        // (u32 wraparound: 2^32 + k lands on dense slot k).
        let ids = [
            0,
            dense_limit - 1,
            dense_limit,
            dense_limit + 1,
            (1u64 << 32),
            (1u64 << 32) + 3,
            u64::MAX,
        ];
        for &id in &ids {
            assert_eq!(t.set(id, Some(id)), None, "id {id} collided with another");
        }
        for &id in &ids {
            assert_eq!(t.get(id), Some(id), "id {id} read back its own value");
        }
        // Wraparound ids must not have landed in dense slots.
        assert_eq!(t.get(3), None, "2^32+3 must not alias dense slot 3");
        t.set((1u64 << 32) + 3, None);
        assert_eq!(t.get((1u64 << 32) + 3), None);
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn concurrent_churn_across_dense_and_overflow() {
        let dense_limit = (CHUNK * MAX_CHUNKS) as u64;
        let t: Arc<SlotTable<u64>> = Arc::new(SlotTable::new());
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let t = t.clone();
                thread::spawn(move || {
                    // Each thread churns one dense id and one overflow id,
                    // interleaving inserts and removals.
                    let dense_id = i;
                    let over_id = dense_limit + 100 + i;
                    for round in 0..500u64 {
                        t.set(dense_id, Some(round));
                        t.set(over_id, Some(round));
                        assert_eq!(t.get(dense_id), Some(round));
                        assert_eq!(t.get(over_id), Some(round));
                        if round % 3 == 0 {
                            assert_eq!(t.set(over_id, None), Some(round));
                            assert_eq!(t.get(over_id), None);
                        }
                    }
                    t.set(dense_id, None);
                    t.set(over_id, None);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(t.is_empty(), "churn must leave no residue in either region");
    }

    #[test]
    fn concurrent_disjoint_writers_do_not_interfere() {
        let t: Arc<SlotTable<u64>> = Arc::new(SlotTable::new());
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let t = t.clone();
                thread::spawn(move || {
                    for round in 0..500u64 {
                        t.set(i, Some(round));
                        assert_eq!(t.get(i), Some(round));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..8u64 {
            assert_eq!(t.get(i), Some(499));
        }
    }
}
