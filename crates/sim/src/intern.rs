//! Function-name interning and dense, lock-free function-keyed tables.
//!
//! The paper's diplomat dispatch path (§4.1, Table 3) resolves every bridged
//! iOS function through a per-process symbol cache — "the address is cached
//! in a locally-scoped static variable" — so the steady-state cost of a
//! diplomatic call is a handful of loads, not a string lookup. The
//! reproduction's original dispatch plane strayed from that: every bridged
//! call hashed a `&'static str` into a mutex-guarded `HashMap` twice (once
//! for the diplomat entry, once for stats accounting).
//!
//! This module restores the paper's shape. [`FnId`] interns a function name
//! into a small dense integer (a `u32` index into a global append-only
//! table); [`FnTable`] is a chunked, lock-free table keyed by that integer.
//! Steady-state dispatch becomes: load a cached [`FnId`], index a dense
//! slot table, add to the collector's per-id record
//! ([`crate::stats::FunctionStats`], one lock per collector). The intern
//! lock is taken only at registration (first intern of a name).
//!
//! # Examples
//!
//! ```
//! use cycada_sim::intern::FnId;
//!
//! let a = FnId::intern("glDrawArrays");
//! let b = FnId::intern("glDrawArrays");
//! assert_eq!(a, b);                       // idempotent
//! assert_eq!(a.name(), "glDrawArrays");   // round-trips to the name
//! assert_eq!(FnId::lookup("glDrawArrays"), Some(a));
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use parking_lot::RwLock;

/// Slots per lazily-allocated chunk of a dense table.
const CHUNK: usize = 256;
/// Maximum number of chunks; `CHUNK * MAX_CHUNKS` bounds the id space.
const MAX_CHUNKS: usize = 256;

/// Maximum number of distinct interned function names (65 536 — two orders
/// of magnitude above the 344 iOS GLES entry points of Table 2).
pub const MAX_FN_IDS: usize = CHUNK * MAX_CHUNKS;

/// A small dense identifier for an interned function name.
///
/// Ids are assigned in interning order starting from 0 and are stable for
/// the life of the process: the same sequence of first-time interns always
/// yields the same ids, and a name, once interned, keeps its id forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnId(u32);

struct InternTable {
    /// Name → id. Locked only on intern/lookup-by-name, never on dispatch.
    by_name: RwLock<HashMap<&'static str, FnId>>,
    /// Id → name. Lock-free reads for snapshot-time name re-attachment.
    names: FnTable<&'static str>,
    /// Number of ids assigned so far (lock-free mirror of `by_name.len()`).
    len: AtomicU32,
}

fn intern_table() -> &'static InternTable {
    static TABLE: OnceLock<InternTable> = OnceLock::new();
    TABLE.get_or_init(|| InternTable {
        by_name: RwLock::new(HashMap::new()),
        names: FnTable::new(),
        len: AtomicU32::new(0),
    })
}

impl FnId {
    /// Interns `name`, returning its id. The first intern of a name appends
    /// it to the global table (taking a lock); later interns of the same
    /// name return the same id.
    pub fn intern(name: &str) -> FnId {
        let table = intern_table();
        // The read-check / write-recheck dance below is a racy protocol;
        // mark its entry so the model checker can interleave competitors.
        crate::check::schedule_point(
            "intern.fn_id",
            std::ptr::from_ref(table) as usize,
            crate::check::Access::Write,
        );
        if let Some(&id) = table.by_name.read().get(name) {
            return id;
        }
        let mut map = table.by_name.write();
        // Re-check: another thread may have interned between the locks.
        if let Some(&id) = map.get(name) {
            return id;
        }
        let id = FnId(map.len() as u32);
        assert!(
            (id.0 as usize) < MAX_FN_IDS,
            "interned function-name table overflow ({MAX_FN_IDS} names)"
        );
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        table.names.get_or_init(id, || leaked);
        map.insert(leaked, id);
        table.len.store(map.len() as u32, Ordering::Release);
        id
    }

    /// Returns the id for `name` if it has already been interned.
    pub fn lookup(name: &str) -> Option<FnId> {
        intern_table().by_name.read().get(name).copied()
    }

    /// The interned name this id stands for.
    pub fn name(self) -> &'static str {
        intern_table()
            .names
            .get(self)
            .copied()
            .expect("FnId not produced by FnId::intern")
    }

    /// Number of names interned so far. Ids `0..count()` are all valid.
    pub fn count() -> usize {
        intern_table().len.load(Ordering::Acquire) as usize
    }

    /// Every id assigned so far, in interning order.
    pub fn all() -> impl Iterator<Item = FnId> {
        (0..Self::count() as u32).map(FnId)
    }

    /// The raw index value.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A chunked, lock-free table mapping [`FnId`] to a once-initialized `T`.
///
/// Slots are write-once ([`OnceLock`] semantics); chunks of 256 slots
/// are heap-allocated on first touch so an empty table stays small. Reads
/// on the dispatch fast path are two relaxed pointer loads and an index —
/// no locks, no hashing.
pub struct FnTable<T> {
    chunks: [OnceLock<Box<Chunk<T>>>; MAX_CHUNKS],
}

struct Chunk<T> {
    slots: [OnceLock<T>; CHUNK],
}

impl<T> FnTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        FnTable {
            chunks: [const { OnceLock::new() }; MAX_CHUNKS],
        }
    }

    fn slot(&self, id: FnId) -> &OnceLock<T> {
        let i = id.index();
        let chunk = self.chunks[i / CHUNK].get_or_init(|| {
            Box::new(Chunk {
                slots: [const { OnceLock::new() }; CHUNK],
            })
        });
        &chunk.slots[i % CHUNK]
    }

    /// Returns the value for `id` if its slot has been initialized.
    pub fn get(&self, id: FnId) -> Option<&T> {
        let i = id.index();
        self.chunks.get(i / CHUNK)?.get()?.slots[i % CHUNK].get()
    }

    /// Returns the value for `id`, initializing the slot with `init` if it
    /// is empty. Concurrent initializers race benignly; one wins.
    pub fn get_or_init(&self, id: FnId, init: impl FnOnce() -> T) -> &T {
        crate::check::schedule_point(
            "intern.table",
            std::ptr::from_ref(self) as usize + id.index(),
            crate::check::Access::Read,
        );
        self.slot(id).get_or_init(init)
    }
}

impl<T> Default for FnTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for FnTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let populated = self.chunks.iter().filter(|c| c.get().is_some()).count();
        f.debug_struct("FnTable")
            .field("chunks", &populated)
            .finish()
    }
}

/// Caches a [`FnId`] in a call-site-local static, mirroring the paper's
/// "locally-scoped static variable" symbol cache: the intern lock is taken
/// at most once per call site, after which dispatch reads a plain static.
///
/// # Examples
///
/// ```
/// use cycada_sim::fn_id;
/// let id = fn_id!("glBindTexture");
/// assert_eq!(id.name(), "glBindTexture");
/// ```
#[macro_export]
macro_rules! fn_id {
    ($name:expr) => {{
        static __CYCADA_FN_ID: ::std::sync::OnceLock<$crate::intern::FnId> =
            ::std::sync::OnceLock::new();
        *__CYCADA_FN_ID.get_or_init(|| $crate::intern::FnId::intern($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_round_trips() {
        let a = FnId::intern("intern_test_fn_a");
        let b = FnId::intern("intern_test_fn_a");
        assert_eq!(a, b);
        assert_eq!(a.name(), "intern_test_fn_a");
        assert_eq!(FnId::lookup("intern_test_fn_a"), Some(a));
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let a = FnId::intern("intern_test_fn_b");
        let b = FnId::intern("intern_test_fn_c");
        assert_ne!(a, b);
        assert!(FnId::count() >= 2);
    }

    #[test]
    fn lookup_of_unknown_name_is_none() {
        assert_eq!(FnId::lookup("intern_test_never_interned"), None);
    }

    #[test]
    fn fn_table_get_or_init_races_to_one_value() {
        let table: FnTable<u64> = FnTable::new();
        let id = FnId::intern("intern_test_fn_table");
        assert!(table.get(id).is_none());
        assert_eq!(*table.get_or_init(id, || 7), 7);
        assert_eq!(*table.get_or_init(id, || 9), 7);
        assert_eq!(table.get(id), Some(&7));
    }

    #[test]
    fn fn_id_macro_caches_per_site() {
        fn site() -> FnId {
            crate::fn_id!("intern_test_macro_site")
        }
        assert_eq!(site(), site());
        assert_eq!(site().name(), "intern_test_macro_site");
    }
}
