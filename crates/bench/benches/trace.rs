//! Micro-benchmarks of the trace plane's cost contract.
//!
//! The disabled-path numbers are the price every instrumented call site
//! pays in production with tracing off — one relaxed atomic load and a
//! branch, which must stay at low single-digit nanoseconds for the plane
//! to be safe to leave compiled into the diplomat hot path. The
//! enabled-path numbers are the per-event recording cost (one push into
//! the thread's own ring under its uncontended lock).
//!
//! Run `CRITERION_JSON_OUT=$(pwd)/BENCH_trace.json cargo bench --bench
//! trace` from the repository root to emit the committed results file
//! (cargo runs the bench from `crates/bench`, so a relative path lands
//! there).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};

use cycada_sim::trace::{self, Category, Counter};

/// The disabled span call site: what `DiplomatEngine::call` pays per call
/// when tracing is off (gate load + branch, no event).
fn bench_disabled_span(c: &mut Criterion) {
    trace::set_enabled(false);
    c.bench_function("trace/disabled_span_call_site", |b| {
        b.iter(|| {
            let s = trace::span(Category::Diplomat, "glDrawElements");
            black_box(&s);
        })
    });
}

/// The disabled instant call site (EGL lifecycle, IOSurface lock sites).
fn bench_disabled_instant(c: &mut Criterion) {
    trace::set_enabled(false);
    c.bench_function("trace/disabled_instant_call_site", |b| {
        b.iter(|| {
            trace::instant(Category::IoSurface, "IOSurfaceLock", black_box(7));
        })
    });
}

/// An always-on counter bump (the failure/lifecycle counters that count
/// even with tracing disabled).
fn bench_counter_bump(c: &mut Criterion) {
    c.bench_function("trace/always_on_counter_bump", |b| {
        b.iter(|| {
            trace::bump(black_box(Counter::EaglPresents));
        })
    });
}

/// The enabled span: open + record one complete event into the calling
/// thread's ring (two wall-clock reads, two ledger reads, one slot write).
fn bench_enabled_span(c: &mut Criterion) {
    trace::set_enabled(true);
    c.bench_function("trace/enabled_span_event", |b| {
        b.iter(|| {
            let s = trace::span(Category::Diplomat, "glDrawElements");
            black_box(&s);
        })
    });
    trace::set_enabled(false);
    trace::clear();
}

/// The enabled instant: one point event into the ring.
fn bench_enabled_instant(c: &mut Criterion) {
    trace::set_enabled(true);
    c.bench_function("trace/enabled_instant_event", |b| {
        b.iter(|| {
            trace::instant(Category::IoSurface, "IOSurfaceLock", black_box(7));
        })
    });
    trace::set_enabled(false);
    trace::clear();
}

/// Draining a full ring into the Chrome JSON exporter (the cost of
/// `AppGl::trace_end_json` per 4096 buffered events).
fn bench_export_full_ring(c: &mut Criterion) {
    trace::set_enabled(true);
    for i in 0..4096u64 {
        trace::instant(Category::App, "fill", i);
    }
    trace::set_enabled(false);
    let events = trace::snapshot();
    c.bench_function("trace/export_chrome_json_4096", |b| {
        b.iter(|| {
            black_box(trace::chrome_trace_json(black_box(&events)));
        })
    });
    trace::clear();
}

criterion_group!(
    benches,
    bench_disabled_span,
    bench_disabled_instant,
    bench_counter_bump,
    bench_enabled_span,
    bench_enabled_instant,
    bench_export_full_ring,
);
criterion_main!(benches);
