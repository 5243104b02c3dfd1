//! Self time of nested trace spans.
//!
//! A span's self time is its duration minus the part of it that spans
//! nested inside it on the same thread cover. Spans on one thread come
//! from RAII guards, so they nest; the self times of a thread's spans
//! then partition the wall time those spans cover, with no overlap and
//! no gap.

use std::cmp::Reverse;

/// One span as self-time accounting sees it: `[start, end)` on thread
/// `tid`, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Recording thread.
    pub tid: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns (`>= start`).
    pub end: u64,
}

/// Self time of every span, in input order.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents sort before the children they contain: by thread, then
    // start, then the later end first.
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start, Reverse(spans[i].end)));
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    let mut open: Vec<usize> = Vec::new();
    let mut thread = None;
    for i in order {
        let s = spans[i];
        if thread != Some(s.tid) {
            open.clear();
            thread = Some(s.tid);
        }
        while open.last().is_some_and(|&top| spans[top].end <= s.start) {
            open.pop();
        }
        if let Some(&parent) = open.last() {
            let covered = s.end.min(spans[parent].end) - s.start;
            own[parent] = own[parent].saturating_sub(covered);
        }
        open.push(i);
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada_sim::SimRng;

    /// Appends a random tree of properly nested spans inside
    /// `[start, end)` on `tid`.
    fn nest(rng: &mut SimRng, tid: u64, start: u64, end: u64, depth: u32, out: &mut Vec<Interval>) {
        out.push(Interval { tid, start, end });
        if depth == 0 || end - start < 2 {
            return;
        }
        let mut at = start;
        for _ in 0..rng.below(4) {
            let a = at + rng.below(end - at);
            let b = a + rng.below(end - a + 1);
            nest(rng, tid, a, b, depth - 1, out);
            at = b;
            if at >= end {
                break;
            }
        }
    }

    /// Length of the union of one thread's intervals.
    fn union_len(spans: &[Interval]) -> u64 {
        let mut v: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.end)).collect();
        v.sort_unstable();
        let (mut total, mut reach) = (0, 0);
        for (a, b) in v {
            let a = a.max(reach);
            if b > a {
                total += b - a;
                reach = b;
            }
        }
        total
    }

    #[test]
    fn self_times_partition_covered_wall() {
        for seed in 0..200 {
            let mut rng = SimRng::new(seed);
            let mut spans = Vec::new();
            let mut expected = 0;
            for tid in 1..=3 {
                let mut at = 0;
                let mut mine = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    let a = at + rng.below(50);
                    let b = a + rng.below(1000);
                    nest(&mut rng, tid, a, b, 4, &mut mine);
                    at = b;
                }
                expected += union_len(&mine);
                spans.extend(mine);
            }
            // Interleave the threads' events the way a drain returns them.
            spans.sort_by_key(|s| (s.end, s.tid));
            let own = self_times(&spans);
            assert_eq!(own.iter().sum::<u64>(), expected, "seed {seed}");
        }
    }

    fn iv(tid: u64, start: u64, end: u64) -> Interval {
        Interval { tid, start, end }
    }

    #[test]
    fn hand_checked_tree() {
        // parent [0,100) holds a [10,30) (which holds b [12,20)) and
        // c [50,90); d [100,110) follows on the same thread; e overlaps in
        // time on another thread and is its own root.
        let spans = [
            iv(1, 0, 100),
            iv(1, 10, 30),
            iv(1, 12, 20),
            iv(1, 50, 90),
            iv(1, 100, 110),
            iv(2, 5, 60),
        ];
        assert_eq!(self_times(&spans), vec![40, 12, 8, 40, 10, 55]);
    }

    #[test]
    fn identical_intervals_nest_once() {
        let own = self_times(&[iv(1, 5, 9), iv(1, 5, 9)]);
        assert_eq!(own.iter().sum::<u64>(), 4);
    }
}
