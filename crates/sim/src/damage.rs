//! Per-buffer damage journals: the origination side of the compositor
//! plane (DESIGN.md §5g).
//!
//! Every byte write to a [`SharedBuffer`](crate::SharedBuffer) is
//! accompanied by a *note* describing the region it may have changed —
//! either a precise [`DamageRect`] (a scissored clear, a draw's clipped
//! triangle bounds, a blit's destination) or a conservative "everything
//! changed" full note for paths that cannot prove their write set (raw
//! closure writes, `map_rows`, CPU-locked gralloc access). The journal
//! assigns each note a monotonically increasing *version*; a consumer
//! that remembers the version it last observed can later ask
//! [`DamageJournal::damage_since`] for a bounding region of everything
//! that changed in between. The answer is always an over-approximation:
//! precision is a performance lever, never a correctness requirement.
//!
//! The journal additionally records *provenance* for full-coverage
//! blits ("this region is a copy of buffer S at version v"), which
//! lets the next blit along the same edge convert the source's damage
//! delta into a precise destination note instead of a full one. That
//! is how damage flows through the EAGL drawable → staging → EGL back
//! buffer chain without any explicit plumbing.
//!
//! Every journal always records. A consumer that cannot trust its own
//! memo (a compositor whose source aliases its target, or one unwinding
//! mid-frame) recomposes in full instead.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::BufferId;

/// An axis-aligned pixel rectangle in a buffer's own coordinate space.
///
/// Plain-old-data twin of the GPU crate's `raster::Rect` (sim cannot
/// depend on gpu); zero width or height means empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DamageRect {
    /// Left edge, in pixels.
    pub x: u32,
    /// Top edge, in pixels.
    pub y: u32,
    /// Width in pixels (0 = empty).
    pub w: u32,
    /// Height in pixels (0 = empty).
    pub h: u32,
}

impl DamageRect {
    /// An empty rectangle.
    pub const EMPTY: DamageRect = DamageRect { x: 0, y: 0, w: 0, h: 0 };

    /// `true` if the rect covers no pixels.
    pub fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// Bounding union of two rects (empty operands are identities).
    pub fn union(&self, other: &DamageRect) -> DamageRect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        let x0 = self.x.min(other.x);
        let y0 = self.y.min(other.y);
        let x1 = (self.x.saturating_add(self.w)).max(other.x.saturating_add(other.w));
        let y1 = (self.y.saturating_add(self.h)).max(other.y.saturating_add(other.h));
        DamageRect { x: x0, y: y0, w: x1 - x0, h: y1 - y0 }
    }

    /// `true` if the two rects share at least one pixel.
    pub fn intersects(&self, other: &DamageRect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.x < other.x.saturating_add(other.w)
            && other.x < self.x.saturating_add(self.w)
            && self.y < other.y.saturating_add(other.h)
            && other.y < self.y.saturating_add(self.h)
    }
}

/// Answer to [`DamageJournal::damage_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// Nothing changed since the queried version.
    None,
    /// Changes are contained in this bounding rect (may over-approximate).
    Rect(DamageRect),
    /// Anything may have changed — the conservative fallback, returned
    /// when a full note (an untracked write path) landed after the
    /// queried version or when the journal's history no longer reaches
    /// back to it.
    Full,
}

/// Provenance of a buffer region: "this was made a copy of `src` (the
/// `src_rect` region, into `dst_rect`) while `src`'s journal stood at
/// `src_version`".
///
/// Recorded by full-coverage blits and consumed by the *next* blit
/// along the same (src, src_rect, dst_rect) edge to turn the source's
/// damage delta into a precise destination note. Stale provenance is
/// always sound: any divergence of the destination from "copy of src @
/// src_version" was itself journaled by the intervening writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// Source allocation identity.
    pub src: BufferId,
    /// Source journal version sampled before the copy read any bytes.
    pub src_version: u64,
    /// Source region copied, in source pixel coordinates.
    pub src_rect: DamageRect,
    /// Destination region written, in destination pixel coordinates.
    pub dst_rect: DamageRect,
}

/// Maximum retained journal entries; older history collapses into the
/// bounding union of the two oldest entries (never into `Full` — the
/// floor only rises when a full note lands).
const MAX_ENTRIES: usize = 16;

/// One journal entry: all writes that advanced the version into the
/// half-open range `(prev_entry.upto, upto]` landed inside `rect`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    upto: u64,
    rect: DamageRect,
}

#[derive(Debug, Default)]
struct JournalState {
    /// Contiguous history, oldest first.
    entries: VecDeque<Entry>,
    /// Versions `<= floor` are beyond retained history: queries against
    /// them answer `Full`.
    floor: u64,
    provenance: Option<Provenance>,
}

/// Collapses the journal's two oldest entries into their bounding union,
/// keeping history contiguous when it exceeds [`MAX_ENTRIES`].
///
/// A journal at the overflow threshold always holds at least two entries;
/// if that shape is ever violated (a corrupted or externally mutated
/// history under fleet-scale churn), the merge must not panic — a panic
/// here takes down every session in the process. Instead it falls back to
/// conservative full damage: retained history is discarded and the floor
/// rises to `next`, so every pending query answers [`Damage::Full`]
/// (over-approximate, always sound), and the always-on
/// `damage-merge-fallbacks` counter records the event.
fn merge_oldest(st: &mut JournalState, next: u64) {
    let a = match st.entries.pop_front() {
        Some(a) => a,
        None => return merge_fallback(st, next),
    };
    match st.entries.front_mut() {
        Some(b) => b.rect = a.rect.union(&b.rect),
        None => merge_fallback(st, next),
    }
}

#[cold]
fn merge_fallback(st: &mut JournalState, next: u64) {
    crate::trace::bump(crate::trace::Counter::DamageMergeFallbacks);
    st.entries.clear();
    st.floor = next;
}

/// A versioned, bounded history of write regions for one allocation.
///
/// See the [module docs](self) for the contract. All methods are
/// cheap and internally synchronized; the version counter is read
/// lock-free.
#[derive(Default)]
pub struct DamageJournal {
    /// Content version: bumped by every committed note.
    version: AtomicU64,
    state: Mutex<JournalState>,
}

impl DamageJournal {
    /// Creates an empty journal at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current content version.
    ///
    /// Consumers must sample the version **before** reading the bytes
    /// it will stand for: writers commit their note (bumping the
    /// version) after the bytes land but before releasing the write
    /// lock, so a version observed before a read can only *under*-state
    /// the content — which makes later `damage_since` answers
    /// over-approximate, never skip real changes.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Commits a write note: `rect` bounds the changed region, `None`
    /// means "anything may have changed" (full damage). Optionally
    /// installs blit provenance in the same critical section so the
    /// provenance order always matches the byte order.
    pub fn commit(&self, rect: Option<DamageRect>, provenance: Option<Provenance>) {
        let mut st = self.state.lock();
        let next = self.version.load(Ordering::Relaxed) + 1;
        match rect {
            None => {
                st.entries.clear();
                st.floor = next;
            }
            Some(r) => {
                // Coalesce no-op and nested writes into the newest entry.
                if let Some(last) = st.entries.back_mut() {
                    if r.is_empty() || last.rect.union(&r) == last.rect {
                        last.upto = next;
                        last.rect = last.rect.union(&r);
                        self.version.store(next, Ordering::Release);
                        if provenance.is_some() {
                            st.provenance = provenance;
                        }
                        return;
                    }
                }
                st.entries.push_back(Entry { upto: next, rect: r });
                if st.entries.len() > MAX_ENTRIES {
                    merge_oldest(&mut st, next);
                }
            }
        }
        self.version.store(next, Ordering::Release);
        if provenance.is_some() {
            st.provenance = provenance;
        }
    }

    /// Bounding damage accumulated strictly after version `since`.
    ///
    /// Answers [`Damage::Full`] when `since` predates retained history.
    pub fn damage_since(&self, since: u64) -> Damage {
        if self.version.load(Ordering::Acquire) == since {
            return Damage::None;
        }
        let st = self.state.lock();
        if since < st.floor {
            return Damage::Full;
        }
        let mut acc = DamageRect::EMPTY;
        let mut any = false;
        for e in &st.entries {
            if e.upto > since {
                acc = acc.union(&e.rect);
                any = true;
            }
        }
        if !any {
            // Version moved (relative to the earlier lock-free check)
            // but no retained entry is newer — only possible under a
            // racing writer; be conservative.
            return if self.version.load(Ordering::Acquire) == since {
                Damage::None
            } else {
                Damage::Full
            };
        }
        Damage::Rect(acc)
    }

    /// The most recently installed blit provenance, if any.
    pub fn provenance(&self) -> Option<Provenance> {
        self.state.lock().provenance
    }
}

impl fmt::Debug for DamageJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("DamageJournal")
            .field("version", &self.version.load(Ordering::Relaxed))
            .field("entries", &st.entries.len())
            .field("floor", &st.floor)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x: u32, y: u32, w: u32, h: u32) -> DamageRect {
        DamageRect { x, y, w, h }
    }

    #[test]
    fn union_and_intersects() {
        let a = r(0, 0, 2, 2);
        let b = r(4, 4, 2, 2);
        assert_eq!(a.union(&b), r(0, 0, 6, 6));
        assert_eq!(a.union(&DamageRect::EMPTY), a);
        assert_eq!(DamageRect::EMPTY.union(&b), b);
        assert!(!a.intersects(&b));
        assert!(a.intersects(&r(1, 1, 4, 4)));
        assert!(!a.intersects(&DamageRect::EMPTY));
    }

    #[test]
    fn journal_accumulates_and_answers_none_when_clean() {
        let j = DamageJournal::new();
        let v0 = j.version();
        assert_eq!(j.damage_since(v0), Damage::None);
        j.commit(Some(r(1, 1, 2, 2)), None);
        j.commit(Some(r(5, 5, 1, 1)), None);
        assert_eq!(j.damage_since(v0), Damage::Rect(r(1, 1, 5, 5)));
        let v2 = j.version();
        assert_eq!(j.damage_since(v2), Damage::None);
    }

    #[test]
    fn full_note_raises_floor() {
        let j = DamageJournal::new();
        let v0 = j.version();
        j.commit(None, None);
        assert_eq!(j.damage_since(v0), Damage::Full);
        let v1 = j.version();
        j.commit(Some(r(0, 0, 1, 1)), None);
        assert_eq!(j.damage_since(v1), Damage::Rect(r(0, 0, 1, 1)));
    }

    #[test]
    fn overflow_merges_oldest_never_answers_unsound() {
        let j = DamageJournal::new();
        let v0 = j.version();
        for i in 0..(MAX_ENTRIES as u32 + 8) {
            j.commit(Some(r(i * 10, 0, 1, 1)), None);
        }
        // History was truncated but the answer still bounds every write.
        match j.damage_since(v0) {
            Damage::Rect(d) => {
                for i in 0..(MAX_ENTRIES as u32 + 8) {
                    assert!(d.intersects(&r(i * 10, 0, 1, 1)), "write {i} escaped");
                }
            }
            Damage::Full => {}
            Damage::None => panic!("writes lost"),
        }
    }

    #[test]
    fn degenerate_overflow_merge_falls_back_to_full_without_panicking() {
        use crate::trace::{counter, Counter};
        // Construct the offending merge shapes directly: a journal state
        // that reaches the overflow merge with fewer than two retained
        // entries. The old code panicked on the unwrap/expect; the fix
        // answers conservative Full and counts the fallback.
        let before = counter(Counter::DamageMergeFallbacks);

        // Zero entries at merge time.
        let mut st = JournalState::default();
        merge_oldest(&mut st, 7);
        assert!(st.entries.is_empty());
        assert_eq!(st.floor, 7, "floor rises so queries answer Full");

        // One entry at merge time.
        let mut st = JournalState::default();
        st.entries.push_back(Entry { upto: 3, rect: r(1, 1, 2, 2) });
        merge_oldest(&mut st, 9);
        assert!(st.entries.is_empty());
        assert_eq!(st.floor, 9);

        assert_eq!(
            counter(Counter::DamageMergeFallbacks),
            before + 2,
            "each degenerate merge is counted"
        );

        // A journal whose floor rose this way answers Full, never None:
        // the fallback loses precision but not writes.
        let j = DamageJournal::new();
        j.commit(Some(r(0, 0, 4, 4)), None);
        {
            let mut st = j.state.lock();
            let next = j.version.load(Ordering::Relaxed);
            merge_fallback(&mut st, next);
        }
        assert_eq!(j.damage_since(0), Damage::Full);
    }

    #[test]
    fn healthy_overflow_merge_never_hits_the_fallback() {
        use crate::trace::{counter, Counter};
        let before = counter(Counter::DamageMergeFallbacks);
        let j = DamageJournal::new();
        for i in 0..(MAX_ENTRIES as u32 * 4) {
            j.commit(Some(r(i * 10, 0, 1, 1)), None);
        }
        assert_eq!(
            counter(Counter::DamageMergeFallbacks),
            before,
            "the ordinary overflow path merges without falling back"
        );
    }

    #[test]
    fn provenance_round_trips() {
        let j = DamageJournal::new();
        assert!(j.provenance().is_none());
        let p = Provenance {
            src: BufferId::from_u64(7),
            src_version: 3,
            src_rect: r(0, 0, 4, 4),
            dst_rect: r(0, 0, 4, 4),
        };
        j.commit(Some(r(0, 0, 4, 4)), Some(p));
        assert_eq!(j.provenance(), Some(p));
    }

    #[test]
    fn empty_rect_notes_advance_version_without_full() {
        let j = DamageJournal::new();
        let v0 = j.version();
        j.commit(Some(DamageRect::EMPTY), None);
        assert!(j.version() > v0);
        assert_eq!(j.damage_since(v0), Damage::Rect(DamageRect::EMPTY));
        // After real damage, an empty note coalesces into the newest
        // entry (over-approximating to its rect, never to Full).
        j.commit(Some(r(2, 2, 3, 3)), None);
        let v = j.version();
        j.commit(Some(DamageRect::EMPTY), None);
        assert!(j.version() > v);
        assert_eq!(j.damage_since(v), Damage::Rect(r(2, 2, 3, 3)));
    }
}
