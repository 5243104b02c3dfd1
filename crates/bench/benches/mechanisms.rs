//! Criterion micro-benchmarks of the reproduction's *real* (wall-clock)
//! mechanism costs — complementing the virtual-time tables: the paper's
//! claim that diplomats are cheap relative to graphics work should hold
//! for our implementation too.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cycada::CycadaDevice;
use cycada_diplomat::{DiplomatEntry, DiplomatPattern, HookKind};
use cycada_gles::{GlesVersion, Primitive};
use cycada_gpu::{DrawClass, GpuDevice, Image, PixelFormat, Rgba, Vertex};
use cycada_sim::{GpuCostModel, Platform};

fn bench_diplomat_dispatch(c: &mut Criterion) {
    let device = CycadaDevice::boot_with_display(Some((64, 48))).expect("boot");
    let tid = device.main_tid();
    let entry = DiplomatEntry::new(
        "bench_probe",
        cycada_egl::loadout::VENDOR_GLES_LIB,
        "glFlush",
        DiplomatPattern::Direct,
        HookKind::Gles,
    );
    device.engine().call(tid, &entry, || {}).expect("warm");
    c.bench_function("diplomat_call_gles_hooks", |b| {
        b.iter(|| {
            device
                .engine()
                .call(tid, &entry, || black_box(0u64))
                .expect("call")
        })
    });
}

fn bench_dlforce_replica(c: &mut Criterion) {
    let device = CycadaDevice::boot_with_display(Some((64, 48))).expect("boot");
    let linker = device.linker().clone();
    // Warm the default namespace.
    linker.dlopen(cycada::LIBUI_WRAPPER).expect("dlopen");
    c.bench_function("dlforce_libui_wrapper_tree", |b| {
        b.iter_batched(
            || (),
            |()| {
                let replica = linker.dlforce(cycada::LIBUI_WRAPPER).expect("dlforce");
                let id = replica.id();
                black_box(&replica);
                linker.unload_replica(id);
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_thread_impersonation(c: &mut Criterion) {
    let device = CycadaDevice::boot_with_display(Some((64, 48))).expect("boot");
    let main = device.main_tid();
    let worker = device.spawn_ios_thread().expect("spawn");
    let engine = device.engine().clone();
    for slot in 10..18 {
        engine
            .graphics_tls()
            .register_well_known(cycada_sim::Persona::Android, slot);
    }
    c.bench_function("impersonation_8_slots_round_trip", |b| {
        b.iter(|| {
            let guard = engine.impersonate(worker, main).expect("impersonate");
            guard.finish().expect("finish");
        })
    });
}

fn bench_rasterizer_fullscreen(c: &mut Criterion) {
    let gpu = GpuDevice::new(GpuCostModel::tegra3());
    let target = Image::new(256, 256, PixelFormat::Rgba8888);
    let verts = vec![
        Vertex::colored([-1.0, -1.0, 0.0], Rgba::RED),
        Vertex::colored([3.0, -1.0, 0.0], Rgba::GREEN),
        Vertex::colored([-1.0, 3.0, 0.0], Rgba::BLUE),
    ];
    c.bench_function("raster_fullscreen_256x256_tri", |b| {
        b.iter(|| {
            gpu.draw(
                &target,
                None,
                black_box(&verts),
                None,
                &cycada_gpu::Pipeline::default(),
                DrawClass::ThreeD,
            )
        })
    });
}

fn bench_bridge_draw_call(c: &mut Criterion) {
    let app =
        cycada::AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, Some((64, 48)))
            .expect("boot");
    let xyz = [-0.1f32, -0.1, 0.0, 0.1, -0.1, 0.0, 0.0, 0.1, 0.0];
    c.bench_function("bridge_small_draw_end_to_end", |b| {
        b.iter(|| {
            app.draw(Primitive::Triangles, black_box(&xyz), [1.0, 0.0, 0.0, 1.0])
                .expect("draw")
        })
    });
}

fn bench_native_vendor_draw_call(c: &mut Criterion) {
    let app = cycada::AppGl::boot_with_display(
        Platform::StockAndroid,
        GlesVersion::V1,
        Some((64, 48)),
    )
    .expect("boot");
    let xyz = [-0.1f32, -0.1, 0.0, 0.1, -0.1, 0.0, 0.0, 0.1, 0.0];
    c.bench_function("native_small_draw_end_to_end", |b| {
        b.iter(|| {
            app.draw(Primitive::Triangles, black_box(&xyz), [1.0, 0.0, 0.0, 1.0])
                .expect("draw")
        })
    });
}

criterion_group!(
    benches,
    bench_diplomat_dispatch,
    bench_dlforce_replica,
    bench_thread_impersonation,
    bench_rasterizer_fullscreen,
    bench_bridge_draw_call,
    bench_native_vendor_draw_call,
);
criterion_main!(benches);
