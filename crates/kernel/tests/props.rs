//! Property-based tests for the simulated kernel.

use proptest::prelude::*;

use cycada_kernel::{bsd_errno_from_linux, Kernel, Persona, TlsArea};
use cycada_sim::{clock, Platform};

proptest! {
    #[test]
    fn tls_snapshot_restore_round_trips(
        writes in prop::collection::vec((0usize..64, any::<u64>()), 0..32),
        slots in prop::collection::vec(0usize..64, 1..32),
    ) {
        let mut area = TlsArea::new();
        for (slot, value) in &writes {
            area.set(*slot, *value);
        }
        let snap = area.snapshot(&slots);
        // Scramble the observed slots.
        for &slot in &slots {
            area.set(slot, 0xDEAD_BEEF);
        }
        area.restore(&slots, &snap);
        for (i, &slot) in slots.iter().enumerate() {
            prop_assert_eq!(area.get(slot), snap[i]);
        }
    }

    #[test]
    fn errno_translation_is_injective_on_common_range(a in 0u64..64, b in 0u64..64) {
        // Distinct Linux errnos must map to distinct BSD errnos, or a
        // foreign binary could confuse two failures.
        if a != b {
            prop_assert_ne!(bsd_errno_from_linux(a), bsd_errno_from_linux(b));
        }
    }

    #[test]
    fn errno_identity_below_eagain(errno in 0u64..11) {
        prop_assert_eq!(bsd_errno_from_linux(errno), errno);
    }

    #[test]
    fn persona_switch_sequences_track_state(switches in prop::collection::vec(any::<bool>(), 0..64)) {
        let kernel = Kernel::for_platform(Platform::CycadaIos);
        let tid = kernel.spawn_process_main(Persona::Ios).unwrap();
        for to_android in switches {
            let target = if to_android { Persona::Android } else { Persona::Ios };
            kernel.set_persona(tid, target).unwrap();
            prop_assert_eq!(kernel.current_persona(tid).unwrap(), target);
        }
    }

    #[test]
    fn tls_values_are_persona_isolated(
        slot in 4usize..64,
        ios_value: u64,
        android_value: u64,
    ) {
        let kernel = Kernel::for_platform(Platform::CycadaIos);
        let tid = kernel.spawn_process_main(Persona::Ios).unwrap();
        kernel.tls_set_raw(tid, Persona::Ios, slot, Some(ios_value)).unwrap();
        kernel.tls_set_raw(tid, Persona::Android, slot, Some(android_value)).unwrap();
        prop_assert_eq!(kernel.tls_get_raw(tid, Persona::Ios, slot).unwrap(), Some(ios_value));
        prop_assert_eq!(kernel.tls_get_raw(tid, Persona::Android, slot).unwrap(), Some(android_value));
    }

    #[test]
    fn locate_propagate_round_trip(
        values in prop::collection::vec(prop::option::of(any::<u64>()), 1..16),
    ) {
        let kernel = Kernel::for_platform(Platform::CycadaIos);
        let a = kernel.spawn_process_main(Persona::Ios).unwrap();
        let b = kernel.spawn_thread(a, Persona::Ios).unwrap();
        let slots: Vec<usize> = (8..8 + values.len()).collect();
        for (slot, value) in slots.iter().zip(&values) {
            kernel.tls_set_raw(a, Persona::Android, *slot, *value).unwrap();
        }
        let located = kernel.locate_tls(b, a, Persona::Android, &slots).unwrap();
        prop_assert_eq!(&located, &values);
        kernel.propagate_tls(b, b, Persona::Android, &slots, &located).unwrap();
        let roundtrip = kernel.locate_tls(b, b, Persona::Android, &slots).unwrap();
        prop_assert_eq!(&roundtrip, &values);
    }

    #[test]
    fn null_syscall_cost_is_stable(reps in 1u64..64) {
        let kernel = Kernel::for_platform(Platform::CycadaAndroid);
        let tid = kernel.spawn_process_main(Persona::Android).unwrap();
        let before = clock::now_ns();
        for _ in 0..reps {
            kernel.null_syscall(tid).unwrap();
        }
        prop_assert_eq!(clock::now_ns() - before, reps * 244);
    }
}
