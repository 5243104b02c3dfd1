//! A SunSpider-shaped JavaScript engine simulator (Figure 5).
//!
//! SunSpider "stresses many aspects of the browser's JavaScript engine
//! including bit operations, cryptography, raytracing, JSON input, and
//! pure math" (§9). Figure 5's story is about **JIT availability**: Safari
//! on Cycada runs without JIT (a Mach VM bug), costing ~4.4× overall and
//! over 10× on the `access`/`bitops` tests, with `regexp` the extreme
//! case — which matches WebKit's published JIT-vs-interpreter gaps.
//!
//! The simulator executes abstract "JS operations" per category; the
//! per-operation cost depends on the execution mode (JIT or interpreter,
//! with category-specific interpreter penalties), the CPU speed, and an
//! occasional kernel trap (allocation/GC), which is how the Cycada syscall
//! overhead shows up on top of the interpreter penalty.

use cycada_kernel::{Kernel, SimTid};
use cycada_sim::{clock, Nanos};

/// The nine SunSpider categories of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JsCategory {
    /// `3d-*`: raytracing, cube rotation.
    ThreeD,
    /// `access-*`: array/property access.
    Access,
    /// `bitops-*`: bit manipulation.
    Bitops,
    /// `controlflow-*`: recursion and branching.
    Controlflow,
    /// `crypto-*`: AES/MD5/SHA1.
    Crypto,
    /// `date-*`: date formatting.
    Date,
    /// `math-*`: pure math kernels.
    Math,
    /// `regexp-*`: regular expressions (the worst non-JIT case).
    Regexp,
    /// `string-*`: string processing.
    String,
}

impl JsCategory {
    /// All categories in the order Figure 5 presents them.
    pub const ALL: [JsCategory; 9] = [
        JsCategory::ThreeD,
        JsCategory::Access,
        JsCategory::Bitops,
        JsCategory::Controlflow,
        JsCategory::Crypto,
        JsCategory::Date,
        JsCategory::Math,
        JsCategory::Regexp,
        JsCategory::String,
    ];

    /// Figure-5 axis label.
    pub fn label(self) -> &'static str {
        match self {
            JsCategory::ThreeD => "3d",
            JsCategory::Access => "access",
            JsCategory::Bitops => "bitops",
            JsCategory::Controlflow => "controlflow",
            JsCategory::Crypto => "crypto",
            JsCategory::Date => "date",
            JsCategory::Math => "math",
            JsCategory::Regexp => "regexp",
            JsCategory::String => "string",
        }
    }

    /// Abstract operation count of the category's tests (shapes the
    /// category's share of total time; string/3d tests are the longest in
    /// real SunSpider runs).
    pub fn op_count(self) -> u64 {
        match self {
            JsCategory::ThreeD => 170_000,
            JsCategory::Access => 80_000,
            JsCategory::Bitops => 60_000,
            JsCategory::Controlflow => 40_000,
            JsCategory::Crypto => 90_000,
            JsCategory::Date => 120_000,
            JsCategory::Math => 110_000,
            JsCategory::Regexp => 40_000,
            JsCategory::String => 330_000,
        }
    }

    /// How much slower one operation runs under the interpreter than under
    /// the JIT. Calibrated to the WebKit ARM-JIT/DFG measurements the
    /// paper cites: bit/access-heavy code suffers >10×, regexp is the
    /// pathological case, string/3d code (dominated by runtime calls)
    /// suffers least.
    pub fn interpreter_penalty(self) -> f64 {
        match self {
            JsCategory::ThreeD => 2.3,
            JsCategory::Access => 10.6,
            JsCategory::Bitops => 11.2,
            JsCategory::Controlflow => 6.1,
            JsCategory::Crypto => 5.2,
            JsCategory::Date => 3.1,
            JsCategory::Math => 6.3,
            JsCategory::Regexp => 16.2,
            JsCategory::String => 2.4,
        }
    }
}

/// JIT-mode cost of one abstract operation on the Nexus 7 CPU.
const JIT_OP_NS: f64 = 5.0;
/// Operations per kernel trap (allocation, GC, mmap).
const OPS_PER_SYSCALL: u64 = 4_000;

/// Per-operation efficiency of Safari's Nitro relative to the Android
/// browser's V8 on the SunSpider mix (Nitro is tuned for exactly this
/// suite — it is how "Safari on iOS perform\[s\] similar to the stock
/// Android browser" despite the iPad's slower CPU).
pub const SAFARI_EFFICIENCY: f64 = 0.77;

/// Extra per-operation cost of running the iOS JS engine on Cycada: the
/// unoptimized system-call path and the Mach VM emulation tax the
/// interpreter's frequent runtime traps (§9: Cycada's 4.4× vs the 4.2× of
/// merely disabling JIT).
pub const CYCADA_KERNEL_TAX: f64 = 1.30;

/// A configured JavaScript engine instance.
#[derive(Debug, Clone, Copy)]
pub struct JsEngine {
    /// Whether JIT compilation is available. On Cycada iOS it is not:
    /// "a Mach VM memory bug in Cycada ... prevents JIT from working
    /// properly" (§9).
    pub jit: bool,
    /// Engine efficiency multiplier (<1 is faster per op).
    pub efficiency: f64,
    /// Kernel/runtime tax multiplier (>1 is slower; Cycada's syscall path).
    pub kernel_tax: f64,
}

impl JsEngine {
    /// An engine with JIT enabled (V8-class baseline).
    pub fn with_jit() -> Self {
        JsEngine {
            jit: true,
            efficiency: 1.0,
            kernel_tax: 1.0,
        }
    }

    /// An engine falling back to the interpreter (V8-class baseline).
    pub fn interpreter_only() -> Self {
        JsEngine {
            jit: false,
            efficiency: 1.0,
            kernel_tax: 1.0,
        }
    }

    /// Safari's Nitro engine, with or without JIT, optionally taxed by the
    /// Cycada kernel path.
    pub fn safari(jit: bool, on_cycada: bool) -> Self {
        JsEngine {
            jit,
            efficiency: SAFARI_EFFICIENCY,
            kernel_tax: if on_cycada { CYCADA_KERNEL_TAX } else { 1.0 },
        }
    }

    /// Runs one category's tests on a thread of `kernel`, charging virtual
    /// time. Returns the elapsed nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the thread is dead.
    pub fn run(&self, kernel: &Kernel, tid: SimTid, category: JsCategory) -> Nanos {
        let start = clock::now_ns();
        let ops = category.op_count();
        let per_op = if self.jit {
            JIT_OP_NS
        } else {
            JIT_OP_NS * category.interpreter_penalty()
        } * self.efficiency
            * self.kernel_tax;
        let cpu_cost = kernel.profile().cpu_cost(per_op * ops as f64);
        clock::charge_ns_f64(cpu_cost);
        // Allocation/GC traps: where the kernel-entry overhead of each
        // platform surfaces in JS time.
        for _ in 0..(ops / OPS_PER_SYSCALL) {
            kernel.null_syscall(tid).expect("thread alive");
        }
        clock::now_ns() - start
    }

    /// Runs the full suite, returning `(per-category, total)` latencies.
    ///
    /// # Panics
    ///
    /// Panics if the thread is dead.
    pub fn run_suite(&self, kernel: &Kernel, tid: SimTid) -> (Vec<(JsCategory, Nanos)>, Nanos) {
        let mut rows = Vec::new();
        let mut total = 0;
        for category in JsCategory::ALL {
            let ns = self.run(kernel, tid, category);
            total += ns;
            rows.push((category, ns));
        }
        (rows, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada_kernel::Persona;
    use cycada_sim::Platform;

    fn kernel_and_tid(platform: Platform) -> (Kernel, SimTid) {
        let kernel = Kernel::for_platform(platform);
        let persona = if platform.app_is_ios() {
            Persona::Ios
        } else {
            Persona::Android
        };
        let tid = kernel.spawn_process_main(persona).unwrap();
        (kernel, tid)
    }

    #[test]
    fn interpreter_is_slower_everywhere() {
        let (kernel, tid) = kernel_and_tid(Platform::CycadaIos);
        for category in JsCategory::ALL {
            let jit = JsEngine::with_jit().run(&kernel, tid, category);
            let interp = JsEngine::interpreter_only().run(&kernel, tid, category);
            assert!(
                interp as f64 > jit as f64 * 2.0,
                "{category:?}: interp {interp} vs jit {jit}"
            );
        }
    }

    #[test]
    fn overall_no_jit_slowdown_matches_figure5() {
        // "Disabling JIT results in a 4.2x slowdown on iOS relative to
        // standard iOS" and Cycada's total is ~4.4x. Aim for ~3.5–5.5x.
        let (kernel, tid) = kernel_and_tid(Platform::CycadaIos);
        let (_, jit_total) = JsEngine::with_jit().run_suite(&kernel, tid);
        let (_, interp_total) = JsEngine::interpreter_only().run_suite(&kernel, tid);
        let ratio = interp_total as f64 / jit_total as f64;
        assert!((3.5..5.5).contains(&ratio), "total slowdown {ratio}");
    }

    #[test]
    fn access_and_bitops_blow_past_10x() {
        let (kernel, tid) = kernel_and_tid(Platform::CycadaIos);
        for category in [JsCategory::Access, JsCategory::Bitops] {
            let jit = JsEngine::with_jit().run(&kernel, tid, category);
            let interp = JsEngine::interpreter_only().run(&kernel, tid, category);
            assert!(
                interp as f64 / jit as f64 > 10.0,
                "{category:?} should exceed 10x"
            );
        }
    }

    #[test]
    fn regexp_is_worst_case() {
        let worst = JsCategory::ALL
            .into_iter()
            .max_by(|a, b| {
                a.interpreter_penalty()
                    .partial_cmp(&b.interpreter_penalty())
                    .unwrap()
            })
            .unwrap();
        assert_eq!(worst, JsCategory::Regexp);
    }

    #[test]
    fn ipad_cpu_is_slower_than_nexus() {
        let (nexus, nexus_tid) = kernel_and_tid(Platform::StockAndroid);
        let (ipad, ipad_tid) = kernel_and_tid(Platform::NativeIos);
        let engine = JsEngine::with_jit();
        let n = engine.run(&nexus, nexus_tid, JsCategory::Math);
        let i = engine.run(&ipad, ipad_tid, JsCategory::Math);
        assert!(i > n, "iPad math {i} should exceed Nexus {n}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(JsCategory::ThreeD.label(), "3d");
        assert_eq!(JsCategory::Regexp.label(), "regexp");
    }
}
