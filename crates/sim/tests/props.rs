//! Property-based tests for the simulation substrate.

use std::collections::HashMap;

use proptest::prelude::*;

use cycada_sim::intern::FnId;
use cycada_sim::stats::{FunctionRecord, FunctionStats};
use cycada_sim::{SharedBuffer, SimRng, VirtualClock};

proptest! {
    #[test]
    fn rng_below_always_in_bounds(seed: u64, bound in 1u64..u64::MAX) {
        let mut rng = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_range_inclusive_bounds(seed: u64, lo: u32, span in 0u32..10_000) {
        let lo = u64::from(lo);
        let hi = lo + u64::from(span);
        let mut rng = SimRng::new(seed);
        for _ in 0..32 {
            let v = rng.range(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
        }
    }

    #[test]
    fn rng_is_deterministic(seed: u64) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_f64_in_unit_interval(seed: u64) {
        let mut rng = SimRng::new(seed);
        for _ in 0..64 {
            let v = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn clock_accumulates_any_charge_sequence(charges in prop::collection::vec(0u64..1_000_000, 0..64)) {
        let clock = VirtualClock::new();
        let mut expect = 0u64;
        for c in charges {
            clock.charge_ns(c);
            expect += c;
            prop_assert_eq!(clock.now_ns(), expect);
        }
    }

    #[test]
    fn stats_shares_sum_to_100(records in prop::collection::vec(("[a-z]{1,8}", 1u64..1_000_000), 1..32)) {
        let stats = FunctionStats::new();
        for (name, ns) in &records {
            stats.record(name, *ns);
        }
        let total: f64 = stats.ranked_by_total().iter().map(|s| s.percent_of_total).sum();
        prop_assert!((total - 100.0).abs() < 1e-6, "shares sum to {total}");
    }

    #[test]
    fn stats_ranking_is_descending(records in prop::collection::vec(("[a-z]{1,8}", 0u64..1_000_000), 1..32)) {
        let stats = FunctionStats::new();
        for (name, ns) in &records {
            stats.record(name, *ns);
        }
        let rows = stats.ranked_by_total();
        for pair in rows.windows(2) {
            prop_assert!(pair[0].record.total_ns >= pair[1].record.total_ns);
        }
    }

    #[test]
    fn shared_buffer_writes_visible_through_all_aliases(len in 1usize..256, idx_frac in 0.0f64..1.0, value: u8) {
        let a = SharedBuffer::zeroed(len);
        let b = a.clone();
        let idx = ((len - 1) as f64 * idx_frac) as usize;
        a.write(|bytes| bytes[idx] = value);
        prop_assert_eq!(b.read(|bytes| bytes[idx]), value);
        prop_assert_eq!(a.len(), b.len());
    }

    #[test]
    fn stats_merge_preserves_totals(
        left in prop::collection::vec(("[a-d]", 1u64..1000), 0..16),
        right in prop::collection::vec(("[a-d]", 1u64..1000), 0..16),
    ) {
        let a = FunctionStats::new();
        let b = FunctionStats::new();
        for (n, v) in &left { a.record(n, *v); }
        for (n, v) in &right { b.record(n, *v); }
        let merged = FunctionStats::new();
        merged.merge(&a);
        merged.merge(&b);
        prop_assert_eq!(merged.total_ns(), a.total_ns() + b.total_ns());
        prop_assert_eq!(merged.total_calls(), a.total_calls() + b.total_calls());
    }

    #[test]
    fn interning_is_idempotent_and_order_stable(names in prop::collection::vec("[a-p]{1,6}", 1..24)) {
        let first: Vec<FnId> = names.iter().map(|n| FnId::intern(n)).collect();
        // Re-interning the same names in the same order yields the same ids.
        let second: Vec<FnId> = names.iter().map(|n| FnId::intern(n)).collect();
        prop_assert_eq!(&first, &second);
        // Ids discriminate exactly by name.
        for (i, a) in names.iter().enumerate() {
            for (j, b) in names.iter().enumerate() {
                prop_assert_eq!(first[i] == first[j], a == b);
            }
        }
    }

    #[test]
    fn fn_id_round_trips_to_name(name in "[a-p]{1,12}") {
        let id = FnId::intern(&name);
        prop_assert_eq!(id.name(), name.as_str());
        prop_assert_eq!(FnId::lookup(&name), Some(id));
        prop_assert!(id.index() < FnId::count());
    }

    #[test]
    fn sharded_snapshot_equals_reference_accumulation(
        records in prop::collection::vec(("[a-h]{1,4}", 1u64..1_000_000), 1..48),
        threads in 1usize..5,
    ) {
        // Reference: a plain single-threaded fold into a name-keyed map.
        let mut reference: HashMap<&str, (u64, u64)> = HashMap::new();
        for (n, v) in &records {
            let (calls, total_ns) = reference.entry(n.as_str()).or_default();
            *calls += 1;
            *total_ns += *v;
        }

        // The collector fed the same records from several threads.
        let sharded = FunctionStats::new();
        let per_thread = records.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for chunk in records.chunks(per_thread) {
                let s = sharded.clone();
                scope.spawn(move || {
                    for (n, v) in chunk {
                        s.record(n, *v);
                    }
                });
            }
        });

        prop_assert_eq!(sharded.total_ns(), reference.values().map(|r| r.1).sum::<u64>());
        prop_assert_eq!(sharded.total_calls(), reference.values().map(|r| r.0).sum::<u64>());
        for (n, _) in &records {
            let (calls, total_ns) = reference[n.as_str()];
            prop_assert_eq!(sharded.get(n), Some(FunctionRecord { calls, total_ns }));
        }
    }
}
