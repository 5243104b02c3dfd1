//! lmbench-style kernel/ABI micro-benchmarks (Table 3).
//!
//! "We first ran the null system call lmbench micro-benchmark which
//! invokes system calls that perform no work within the kernel. Using
//! Cycada, we then ran a custom micro-benchmark using the lmbench
//! infrastructure that measures the time to invoke a standard iOS
//! function, a diplomat with no prelude or postlude, a diplomat with an
//! empty prelude and postlude, and a diplomat using the Cycada GLES
//! prelude and postlude functions" (§9).

use cycada::CycadaDevice;
use cycada_diplomat::{DiplomatEntry, DiplomatPattern, HookKind};
use cycada_kernel::{Kernel, Persona};
use cycada_sim::{clock, Nanos, Platform};

/// Iterations per measurement (costs are deterministic; iterations verify
/// stability, mirroring lmbench's repetition).
const ITERS: u64 = 1000;

/// The Table 3 left column: null-syscall cost per platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NullSyscallRow {
    /// The platform configuration.
    pub platform: Platform,
    /// Measured nanoseconds per null syscall.
    pub ns: Nanos,
}

/// The Table 3 right column: call costs on Cycada.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiplomaticCallRows {
    /// A standard function call.
    pub standard_function_ns: Nanos,
    /// A bare diplomat (no prelude/postlude).
    pub diplomat_ns: Nanos,
    /// A diplomat with empty prelude/postlude.
    pub diplomat_pre_post_ns: Nanos,
    /// A diplomat with the GLES prelude/postlude.
    pub diplomat_gl_pre_post_ns: Nanos,
}

/// The full Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table3 {
    /// Null syscall rows (stock Android, Cycada Android, Cycada iOS, iPad).
    pub null_syscall: Vec<NullSyscallRow>,
    /// Diplomatic call rows.
    pub calls: DiplomaticCallRows,
}

/// Measures the null-syscall cost on one platform, in the persona the
/// platform's apps use.
///
/// # Panics
///
/// Panics if the kernel refuses to boot (cannot happen for the four paper
/// configurations).
pub fn null_syscall_ns(platform: Platform) -> Nanos {
    let kernel = Kernel::for_platform(platform);
    let persona = if platform.app_is_ios() {
        Persona::Ios
    } else {
        Persona::Android
    };
    let tid = kernel.spawn_process_main(persona).expect("supported persona");
    let start = clock::now_ns();
    for _ in 0..ITERS {
        kernel.null_syscall(tid).expect("thread alive");
    }
    (clock::now_ns() - start) / ITERS
}

/// Measures a plain function call on the Cycada device.
pub fn standard_function_ns() -> Nanos {
    let kernel = Kernel::for_platform(Platform::CycadaIos);
    let cost = kernel.profile().function_call_ns;
    let start = clock::now_ns();
    for _ in 0..ITERS {
        clock::charge_ns(cost);
    }
    (clock::now_ns() - start) / ITERS
}

/// Measures one diplomat variant on a booted Cycada device.
///
/// # Panics
///
/// Panics if the device cannot boot.
pub fn diplomat_ns(hooks: HookKind) -> Nanos {
    let device = CycadaDevice::boot().expect("device boots");
    let tid = device.main_tid();
    let entry = DiplomatEntry::new(
        "lmbench_probe",
        cycada_egl::loadout::VENDOR_GLES_LIB,
        "glFlush",
        DiplomatPattern::Direct,
        hooks,
    );
    // Warm the symbol cache (first call pays dlopen/dlsym).
    device.engine().call(tid, &entry, || {}).expect("warm call");
    let start = clock::now_ns();
    for _ in 0..ITERS {
        device.engine().call(tid, &entry, || {}).expect("probe call");
    }
    (clock::now_ns() - start) / ITERS
}

impl Table3 {
    /// Runs all Table 3 measurements.
    pub fn measure() -> Table3 {
        Table3 {
            null_syscall: [
                Platform::StockAndroid,
                Platform::CycadaAndroid,
                Platform::CycadaIos,
                Platform::NativeIos,
            ]
            .into_iter()
            .map(|platform| NullSyscallRow {
                platform,
                ns: null_syscall_ns(platform),
            })
            .collect(),
            calls: DiplomaticCallRows {
                standard_function_ns: standard_function_ns(),
                diplomat_ns: diplomat_ns(HookKind::None),
                diplomat_pre_post_ns: diplomat_ns(HookKind::Empty),
                diplomat_gl_pre_post_ns: diplomat_ns(HookKind::Gles),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_reproduces_paper_values() {
        let t = Table3::measure();
        let by_platform = |p: Platform| {
            t.null_syscall
                .iter()
                .find(|r| r.platform == p)
                .expect("row present")
                .ns
        };
        assert_eq!(by_platform(Platform::StockAndroid), 225);
        assert_eq!(by_platform(Platform::CycadaAndroid), 244);
        assert_eq!(by_platform(Platform::CycadaIos), 305);
        assert_eq!(by_platform(Platform::NativeIos), 575);
        assert_eq!(t.calls.standard_function_ns, 9);
        assert_eq!(t.calls.diplomat_ns, 816);
        assert_eq!(t.calls.diplomat_pre_post_ns, 828);
        assert_eq!(t.calls.diplomat_gl_pre_post_ns, 933);
    }

    #[test]
    fn diplomat_costs_about_three_syscalls() {
        // "A GLES diplomatic call costs almost the same as three system
        // calls" (§9).
        let gles = diplomat_ns(HookKind::Gles);
        let syscall = null_syscall_ns(Platform::CycadaIos);
        let ratio = gles as f64 / syscall as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }
}
