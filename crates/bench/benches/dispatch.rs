//! Micro-benchmarks of the dispatch plane itself: the per-call lookup and
//! accounting cost of the interned-FnId path.
//!
//! Every bridged call loads a call-site-cached [`FnId`], indexes the dense
//! diplomat entry table, and adds to its collector's per-id record. These
//! benchmarks isolate exactly that portion — no kernel, no persona switch
//! — plus the accounting half on its own.
//!
//! Run with `CRITERION_JSON_OUT=BENCH_dispatch.json cargo bench --bench
//! dispatch` to emit the committed results file.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};

use cycada_diplomat::{DiplomatEntry, DiplomatPattern, DiplomatTable, FnId, HookKind};
use cycada_gles::GlesRegistry;
use cycada_sim::stats::FunctionStats;

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

/// Lookup plus accounting: call-site-cached FnId, dense entry table, one
/// locked add on the collector.
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
    let stats = FunctionStats::new();
    let ids: Vec<FnId> = HOT_NAMES.iter().map(|n| FnId::intern(n)).collect();
    let mut i = 0usize;
    c.bench_function("dispatch/stats_record_interned", |b| {
        b.iter(|| {
            let id = ids[i % ids.len()];
            i = i.wrapping_add(1);
            stats.record_id(id, 933);
        })
    });
}

criterion_group!(dispatch, bench_interned_fnid, bench_stats_recording);
criterion_main!(dispatch);
