//! Micro-benchmarks of the dispatch plane itself: the per-call lookup and
//! accounting cost, legacy string-keyed path vs the interned-FnId path.
//!
//! The pre-refactor bridges paid, on *every* bridged call, a mutex lock and
//! a string hash to fetch the diplomat entry, plus a second lock + hash
//! (and a `String` allocation on first use) to record stats. The interned
//! path replaces both with a call-site-cached [`FnId`], a dense-table
//! index, and relaxed atomic adds. These benchmarks isolate exactly that
//! portion — no kernel, no persona switch — so the speedup is the lookup/
//! accounting ratio the refactor claims.
//!
//! Run with `CRITERION_JSON_OUT=BENCH_dispatch.json cargo bench --bench
//! dispatch` to emit the committed results file.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use cycada_bench::LegacyStringStats;
use cycada_diplomat::{DiplomatEntry, DiplomatPattern, DiplomatTable, FnId, HookKind};
use cycada_gles::GlesRegistry;
use cycada_sim::stats::FunctionStats;

use parking_lot::Mutex;

/// A rotating sample of hot bridged functions (the Figure 7 leaders).
const HOT_NAMES: [&str; 8] = [
    "glDrawElements",
    "eglSwapBuffers",
    "aegl_bridge_draw_fbo_tex",
    "glClear",
    "aegl_bridge_copy_tex_buf",
    "glTexSubImage2D",
    "glFlush",
    "glBindTexture",
];

fn entry_for(id: FnId) -> DiplomatEntry {
    DiplomatEntry::with_id(
        id,
        cycada_egl::loadout::VENDOR_GLES_LIB,
        "glFlush",
        DiplomatPattern::Direct,
        HookKind::Gles,
    )
}

/// The old bridge shape: entry cache and stats both behind mutex + hash.
fn bench_legacy_string_keyed(c: &mut Criterion) {
    GlesRegistry::global();
    let entries: Mutex<HashMap<&'static str, Arc<DiplomatEntry>>> = Mutex::new(HashMap::new());
    for name in HOT_NAMES {
        entries
            .lock()
            .insert(name, Arc::new(entry_for(FnId::intern(name))));
    }
    let stats = LegacyStringStats::new();
    let mut i = 0usize;
    c.bench_function("dispatch/legacy_string_keyed", |b| {
        b.iter(|| {
            let name = HOT_NAMES[i % HOT_NAMES.len()];
            i = i.wrapping_add(1);
            let entry = entries.lock().get(name).cloned().expect("registered");
            black_box(&entry);
            stats.record(name, 933);
        })
    });
}

/// The new shape: call-site-cached FnId, dense table, sharded atomics.
fn bench_interned_fnid(c: &mut Criterion) {
    GlesRegistry::global();
    let table = DiplomatTable::new();
    let ids: Vec<FnId> = HOT_NAMES.iter().map(|n| FnId::intern(n)).collect();
    for &id in &ids {
        table.get_or_register(id, || entry_for(id));
    }
    let stats = FunctionStats::new();
    let mut i = 0usize;
    c.bench_function("dispatch/interned_fnid", |b| {
        b.iter(|| {
            let id = ids[i % ids.len()];
            i = i.wrapping_add(1);
            let entry = table.get(id).expect("registered");
            black_box(entry);
            stats.record_id(id, 933);
        })
    });
}

/// Accounting alone: the stats-recording half of the per-call cost.
fn bench_stats_recording(c: &mut Criterion) {
    let legacy = LegacyStringStats::new();
    let mut i = 0usize;
    c.bench_function("dispatch/stats_record_legacy", |b| {
        b.iter(|| {
            let name = HOT_NAMES[i % HOT_NAMES.len()];
            i = i.wrapping_add(1);
            legacy.record(name, 933);
        })
    });

    let sharded = FunctionStats::new();
    let ids: Vec<FnId> = HOT_NAMES.iter().map(|n| FnId::intern(n)).collect();
    let mut j = 0usize;
    c.bench_function("dispatch/stats_record_interned", |b| {
        b.iter(|| {
            let id = ids[j % ids.len()];
            j = j.wrapping_add(1);
            sharded.record_id(id, 933);
        })
    });
}

/// Totals query: O(n) map scan vs O(shards) running atomics.
fn bench_totals_query(c: &mut Criterion) {
    let names: Vec<FnId> = GlesRegistry::global()
        .ios_entry_points()
        .iter()
        .map(|ep| ep.fn_id)
        .collect();

    let legacy = LegacyStringStats::new();
    for id in &names {
        legacy.record(id.name(), 933);
    }
    c.bench_function("dispatch/totals_legacy_scan", |b| {
        b.iter(|| black_box(legacy.total_ns() + legacy.total_calls()))
    });

    let sharded = FunctionStats::new();
    for &id in &names {
        sharded.record_id(id, 933);
    }
    c.bench_function("dispatch/totals_running_atomics", |b| {
        b.iter(|| black_box(sharded.total_ns() + sharded.total_calls()))
    });
}

criterion_group!(
    dispatch,
    bench_legacy_string_keyed,
    bench_interned_fnid,
    bench_stats_recording,
    bench_totals_query,
);
criterion_main!(dispatch);
