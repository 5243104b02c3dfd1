//! Concurrency tests: simulated threads mapped onto real host threads,
//! exercising the kernel, linker and GLES stacks under true parallelism.

use std::sync::Arc;

use cycada::CycadaDevice;
use cycada_gles::{GlesVersion, TexFormat};
use cycada_kernel::{Kernel, Persona};
use cycada_sim::{clock, Platform};

#[test]
fn parallel_syscalls_accumulate_exact_virtual_time() {
    let kernel = Arc::new(Kernel::for_platform(Platform::CycadaAndroid));
    let threads = 8;
    let iters = 500u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let k = kernel.clone();
            let tid = k.spawn_process_main(Persona::Android).unwrap();
            std::thread::spawn(move || {
                let start = clock::now_ns();
                for _ in 0..iters {
                    k.null_syscall(tid).unwrap();
                }
                clock::now_ns() - start
            })
        })
        .collect();
    for h in handles {
        assert_eq!(
            h.join().unwrap(),
            iters * 244,
            "each thread pays exactly its own traps"
        );
    }
    assert_eq!(kernel.syscall_counts().null, threads * iters);
}

#[test]
fn parallel_dlforce_produces_isolated_replicas() {
    let device = Arc::new(CycadaDevice::boot_with_display(Some((64, 48))).unwrap());
    device.egl().initialize(device.main_tid()).unwrap();
    let linker = device.linker().clone();
    let before = linker.constructor_runs(cycada::LIBUI_WRAPPER);
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let l = linker.clone();
            std::thread::spawn(move || {
                let replica = l.dlforce(cycada::LIBUI_WRAPPER).unwrap();
                replica.root().instance_id()
            })
        })
        .collect();
    let ids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let unique: std::collections::HashSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), 6, "every replica got a fresh instance");
    assert_eq!(
        linker.constructor_runs(cycada::LIBUI_WRAPPER) - before,
        6
    );
}

#[test]
fn parallel_eagl_contexts_from_many_threads() {
    // Several "GCD" threads each create their own EAGLContext (each with
    // its own DLR replica) and upload a texture, concurrently.
    let device = Arc::new(CycadaDevice::boot_with_display(Some((64, 48))).unwrap());
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let dev = device.clone();
            std::thread::spawn(move || {
                let tid = dev.spawn_ios_thread().unwrap();
                let version = if i % 2 == 0 {
                    GlesVersion::V1
                } else {
                    GlesVersion::V2
                };
                let eagl = dev.eagl();
                let ctx = eagl.init_with_api(tid, version).unwrap();
                eagl.set_current_context(tid, Some(ctx)).unwrap();
                let bridge = dev.bridge();
                let tex = bridge.gen_textures(tid, 1).unwrap()[0];
                bridge.bind_texture(tid, tex).unwrap();
                bridge
                    .tex_image_2d(tid, 8, 8, TexFormat::Rgba, None)
                    .unwrap();
                assert_eq!(
                    bridge.get_error(tid).unwrap(),
                    cycada_gles::GlError::NoError
                );
                eagl.connection(ctx).unwrap()
            })
        })
        .collect();
    let connections: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let unique: std::collections::HashSet<_> = connections.iter().collect();
    assert_eq!(unique.len(), 4, "each context has its own connection");
}

#[test]
fn concurrent_iosurface_traffic_is_consistent() {
    let device = Arc::new(CycadaDevice::boot_with_display(Some((64, 48))).unwrap());
    // One context so the GLES side exists.
    let main = device.main_tid();
    let eagl = device.eagl();
    let ctx = eagl.init_with_api(main, GlesVersion::V2).unwrap();
    eagl.set_current_context(main, Some(ctx)).unwrap();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let dev = device.clone();
            std::thread::spawn(move || {
                let tid = dev.spawn_ios_thread().unwrap();
                let iosb = dev.iosurface_bridge();
                let surface = iosb
                    .create(tid, cycada_iosurface::SurfaceProps::bgra(8, 8))
                    .unwrap();
                // CPU draws while nothing is bound: plain lock/unlock.
                iosb.lock(tid, &surface).unwrap();
                surface.as_image().set_pixel(0, 0, cycada_gpu::Rgba::RED);
                iosb.unlock(tid, &surface).unwrap();
                iosb.release(tid, &surface).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(device.iosurface_bridge().live_surfaces(), 0);
    assert_eq!(device.coresurface().live_surfaces(), 0);
}

#[test]
fn send_sync_bounds_hold() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Kernel>();
    assert_send_sync::<cycada_linker::DynamicLinker>();
    assert_send_sync::<cycada_gpu::GpuDevice>();
    assert_send_sync::<cycada_gles::VendorGles>();
    assert_send_sync::<cycada_egl::AndroidEgl>();
    assert_send_sync::<cycada_diplomat::DiplomatEngine>();
    assert_send_sync::<CycadaDevice>();
}
